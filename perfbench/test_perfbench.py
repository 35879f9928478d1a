"""Tests of the benchmark's own input generation, tracer and answer checks.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import hktheta.cli  # noqa: E402,F401  (imports every traced module)
from hktheta import finabgrp, heisenberg, sweeps  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Rebinder, Tracer  # noqa: E402
from worker import load_program, per_layer_metrics  # noqa: E402


def _bindings():
    return {
        (mod.__name__, key): value
        for mod in Rebinder().modules()
        for key, value in vars(mod).items()
        if not key.startswith("__")
    }


def test_one_seed_yields_identical_inputs():
    assert workloads.heisenberg_inputs(7) == workloads.heisenberg_inputs(7)
    assert workloads.report_inputs(7, "d") == workloads.report_inputs(7, "d")
    assert workloads.report_docs(7) == workloads.report_docs(7)
    assert workloads.report_inputs(7, "d") != workloads.report_inputs(8, "d")
    assert workloads.heisenberg_inputs(7) != workloads.heisenberg_inputs(8)


def test_inputs_have_the_expected_size_and_mix():
    assert len(workloads.heisenberg_inputs(3)) == workloads.expected_heisenberg_checks() == 6831
    kinds = [r["kind"] for r in workloads.report_inputs(3, "d")]
    assert {k: kinds.count(k) for k in set(kinds)} == dict(workloads.REPORT_MIX)
    assert sum(workloads.EXPECTED_SWEEP_CHECKS.values()) == 20727


def test_tracer_records_a_call_from_sweeps_into_finabgrp():
    sweeps._brute_standard_kum.cache_clear()
    with Tracer() as tracer:
        assert sweeps.sweep_og6_model().failed == 0
    spans = {sid: (name, parent) for sid, name, _, _, parent, _, _ in tracer.spans()}
    brute = [parent for name, parent in spans.values() if name == "finabgrp.brute_cokernel"]
    assert len(brute) == 3
    assert all(spans[p][0] == "sweeps.sweep_og6_model" for p in brute)
    assert tracer.created["finabgrp.QmodZ"][0] > 0


def test_self_time_never_exceeds_span_time():
    with Tracer() as tracer:
        sweeps.sweep_rank4_consistency()
        heisenberg.h_commutator(*(heisenberg.heis_elem((3, 3), finabgrp.QmodZ(1, 3), x, f)
                                  for x, f in (((1, 2), (0, 1)), ((2, 2), (1, 1)))))
    summary = tracer.summary()
    assert summary["heisenberg.h_mul"]["calls"] == 3
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["total_s"]


def test_every_patched_name_is_restored():
    before = _bindings()
    post_inits = (finabgrp.QmodZ.__post_init__, finabgrp.GroupElement.__post_init__)
    registry = (("og6 model", sweeps.sweep_og6_model),)
    sweeps._TEST_REGISTRY = registry  # a registry of functions, as a sweep table would be
    try:
        with Tracer():
            assert sweeps.brute_cokernel is not before[("hktheta.sweeps", "brute_cokernel")]
            assert sweeps._TEST_REGISTRY[0][1] is not sweeps.sweep_og6_model.__wrapped__
            assert sweeps._TEST_REGISTRY[0][1] is sweeps.sweep_og6_model
        assert sweeps._TEST_REGISTRY is registry
    finally:
        del sweeps._TEST_REGISTRY
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert (finabgrp.QmodZ.__post_init__, finabgrp.GroupElement.__post_init__) == post_inits


def test_verify_flags_wrong_answers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stream = workloads.ReportStream(5, "work")
    wanted = {"pairing-cokernel": 4, "heisenberg": 4, "invalid": 2, "kummer-q": 2}
    chosen = []
    for req in stream.inputs:
        if wanted.get(req["kind"], 0) > 0:
            wanted[req["kind"]] -= 1
            chosen.append(req)
    stream.inputs = chosen
    stream.prepare(load_program(ROOT))
    stream.start(None)
    stream.run(None)
    assert stream.verify()[2] == []

    rebinder = Rebinder()
    rebinder.replace(finabgrp.pairing_cokernel, lambda p: finabgrp.AbGroupStructure((7,)))
    rebinder.replace(heisenberg.h_commutator, lambda a, b: finabgrp.QmodZ(1, 7))
    try:
        stream.run(None)
    finally:
        rebinder.restore()
    failures = stream.verify()[2]
    assert len(failures) == 8
    assert all(f.startswith(("pairing cokernel", "heisenberg commutator")) for f in failures)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert all(run.WHY[w["name"]] == w["why"] for w in spec["workloads"])
    assert set(run.WHY) == set(workloads.WORKLOADS)
