"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

run.py starts it from the checkout root.  Set-up is timed from the first
line of main(): the benchmark's own imports, input generation, the import of
`hktheta` from this checkout's src/, and preparation of program objects.
Only the workload's run() is timed as wall time.  Each request's time is
cut at every garbage collection it contains: collections come at the same
points of the same work in every pass, so run.py can compare the pieces
across passes one by one.  With TRACE=1 the tracer
is installed around run() and the pass also reports the per-layer metrics
and writes its spans to perfbench/.work/.
"""

import gc
import sys
import time

# Traced functions reported one by one; every public function of the traced
# modules is still wrapped, and counts toward its module's self time.
LAYER_FUNCTIONS = (
    "snf.smith_normal_form", "snf.integer_det", "snf.integer_kernel_basis", "snf.rational_solve",
    "arith.factorint", "arith.divisors",
    "finabgrp.eval_pairing", "finabgrp.e_matrix", "finabgrp.pairing_cokernel",
    "finabgrp.pairing_radical", "finabgrp.brute_cokernel", "finabgrp.tensor_pairing",
    "finabgrp.pairing_from_dict",
    "lattices.lambda_kum", "lattices.bbf_square", "lattices.divisibility", "lattices.og6_class",
    "lattices.kum_orbit_split",
    "heisenberg.h_mul", "heisenberg.h_inv", "heisenberg.h_commutator",
    "heisenberg.schrodinger_matrix", "heisenberg.gpm_mul", "heisenberg.gpm_inv",
    "heisenberg.character_norm", "heisenberg.heis_pairing",
    "invariants.theta_report", "invariants.kum_cokernel", "invariants.kum_cokernel_from_class",
    "cli.main", "cli.build_parser",
)
# Functions whose raising calls are counted: rejected inputs and swallowed errors.
RAISED_FUNCTIONS = ("invariants.kum_cokernel", "finabgrp.pairing_from_dict",
                    "lattices.kum_orbit_split", "cli.main")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracer import COUNTED_CLASSES, TRACED_MODULES
    from workloads import EXPECTED_SWEEP_CHECKS

    out = []
    for fn in LAYER_FUNCTIONS:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_ms", "ms", "lower")]
    out += [(f"{mod}.self_ms", "ms", "lower") for mod in TRACED_MODULES]
    out += [(f"sweeps.{s.removeprefix('sweep_')}.ms", "ms", "lower") for s in EXPECTED_SWEEP_CHECKS]
    out += [(f"{mod}.{cls}.created", "count", "lower") for mod, cls in COUNTED_CLASSES]
    out += [(f"{fn}.raised", "count", "lower") for fn in RAISED_FUNCTIONS]
    out += [("invariants.kum_cokernel.useful_ratio", "ratio", "higher"),
            ("tracing.overhead_s", "s", "lower")]
    return out


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced pass; tracing.overhead_s is left to run.py."""
    from tracer import TRACED_MODULES
    from workloads import EXPECTED_SWEEP_CHECKS

    summary = tracer.summary()
    zero = {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for fn in LAYER_FUNCTIONS:
        row = summary.get(fn, zero)
        out[f"{fn}.calls"] = row["calls"]
        out[f"{fn}.self_ms"] = row["self_s"] * 1e3
    for mod in TRACED_MODULES:
        out[f"{mod}.self_ms"] = 1e3 * sum(
            row["self_s"] for name, row in summary.items() if name.startswith(mod + ".")
        )
    for sweep in EXPECTED_SWEEP_CHECKS:
        row = summary.get(f"sweeps.{sweep}", zero)
        out[f"sweeps.{sweep.removeprefix('sweep_')}.ms"] = row["total_s"] * 1e3
    for key, cell in tracer.created.items():
        out[f"{key}.created"] = cell[0]
    for fn in RAISED_FUNCTIONS:
        out[f"{fn}.raised"] = summary.get(fn, zero)["raised"]
    kc = summary.get("invariants.kum_cokernel", zero)
    out["invariants.kum_cokernel.useful_ratio"] = (
        (kc["calls"] - kc["raised"]) / kc["calls"] if kc["calls"] else 0.0
    )
    return out


def load_program(root):
    """Import hktheta from the checkout's src/ and return its traced modules by short name."""
    import importlib
    import types

    from tracer import PACKAGE, TRACED_MODULES

    src = root / "src"
    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED_MODULES}
    package = sys.modules[PACKAGE]
    if not package.__file__ or not str(package.__file__).startswith(str(src)):
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**modules)


def peak_rss_kib() -> int:
    """This process's peak resident set size.

    Linux's ru_maxrss also counts the parent's peak when the parent started
    this process by vfork, as subprocess does, so VmHWM is read first.
    """
    import resource

    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def split_at(spans, marks) -> list[list[float]]:
    """Each request's duration, cut at the clock readings in `marks` that fall inside it."""
    out, k = [], 0
    for start, end in spans:
        while k < len(marks) and marks[k] <= start:
            k += 1
        cuts = [start]
        while k < len(marks) and marks[k] < end:
            cuts.append(marks[k])
            k += 1
        cuts.append(end)
        out.append([b - a for a, b in zip(cuts, cuts[1:])])
    return out


def main(argv) -> int:
    t0 = time.perf_counter()
    import json
    from pathlib import Path

    import tracer as tracing
    import workloads

    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    root = Path(__file__).resolve().parent.parent
    workdir = Path("perfbench", ".work")
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, str(workdir))
    workload.prepare(load_program(root))
    setup_s = time.perf_counter() - t0

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    gc_marks = []
    clock = time.perf_counter

    def on_gc(phase, info):
        gc_marks.append(clock())

    workload.start(tracer)
    gc.callbacks.append(on_gc)
    t1 = clock()
    spans = workload.run(tracer)
    wall_s = clock() - t1
    gc.callbacks.remove(on_gc)
    workload.stop()
    if tracer is not None:
        tracer.uninstall()
    rss_kib = peak_rss_kib()

    attempted, checks, failures = workload.verify()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "segments_s": split_at(spans, gc_marks),
        "peak_rss_mib": rss_kib / 1024,
        "attempted": attempted,
        "checks": checks,
        "failures": failures[:20],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = tracer.span_count
        tracer.write_spans(workdir / f"spans-{name}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
