"""Seeded inputs, the three workloads, and the checks on their answers.

Input generation uses only the standard library and the seed, so one seed
always yields the same inputs; the program receives nothing else.  Each
workload has four steps, and only `run` is timed:

* `prepare(hk)` turns the inputs into program objects or files (set-up);
* `start(tracer)` / `stop()` install and remove the benchmark's own hooks;
* `run(tracer)` does the fixed work and returns each request's (start, end)
  clock reading, in input order, so the passes of a run can be compared
  request by request;
* `verify()` checks every answer, by a route other than the one timed.

Why these workloads (see README.md for the metric table):

* `sweep-battery` is `sweeps.run_all()`, the battery `hktheta sweep` and the
  acceptance gate pay for; its time is finabgrp (`brute_cokernel`,
  `eval_pairing`) and lattices + snf.  The sweeps carry their own fixed
  seeds, so `--seed` does not change it.
* `heisenberg-suite` is the criterion-4 check (Schrodinger homomorphism and
  commutator identity) on exhaustive small types and seeded pairs of larger
  types, plus character norms and pairing nondegeneracy: heisenberg and
  QmodZ work, almost no lattices, snf or cli.
* `report-stream` is a seeded mix of independent in-process `cli.main`
  requests, the interactive use: argparse set-up per request and the
  Smith-form pairing routes on many distinct pairings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from fractions import Fraction

SWEEP_BATTERY = "sweep-battery"
HEISENBERG_SUITE = "heisenberg-suite"
REPORT_STREAM = "report-stream"

# Checks each sweep of the shipped battery makes at its default ranges.
EXPECTED_SWEEP_CHECKS = {
    "sweep_kum_criterion": 5301,
    "sweep_kum_three_way": 1584,
    "sweep_og6_model": 3,
    "sweep_kum_sections": 1156,
    "sweep_og6_sections": 100,
    "sweep_rank4_consistency": 50,
    "sweep_tensor_additivity": 353,
    "sweep_orbit_split": 2180,
    "sweep_og6_trichotomy": 10000,
}

# Every pair of the finite quotient mu_N x J x Jhat is checked on these types;
# the (3,3) grid alone would take seconds, so larger types get sampled pairs.
HEIS_EXHAUSTIVE = ((2,), (3,), (4,), (2, 2))
HEIS_SAMPLED = (((3, 3), 300), ((2, 2, 2, 2), 300), ((4, 4), 300))
# Types whose character norm and commutator-pairing nondegeneracy are checked.
HEIS_WHOLE_TYPES = ((2,), (3,), (4,), (2, 2), (3, 3), (2, 2, 2, 2), (4, 4), (6, 6), (8, 8))

# Requests per pass, by kind.  Argparse set-up dominates every request, so the
# kinds' latency ranges overlap and p50 sits inside all of them; --oracle
# requests stay under 1% and on small groups.  The slowest requests are the
# (8,8) Schrodinger matrices (dim 64); they are 2% of the stream, so p99 falls
# inside them rather than on the step between them and the pairing radicals
# below, where it moved by a fifth from seed to seed.
# Within a kind, the group types and pairing documents are dealt out in turn
# rather than drawn, so every seed has the same number of each: the seed picks
# the values and the order, and the costly tail does not change size with it.
REPORT_MIX = (
    ("kummer-q", 144),
    ("kummer-class", 120),
    ("og6", 90),
    ("rank4", 90),
    ("lattice-q", 120),
    ("lattice-div", 120),
    ("lattice-class", 90),
    ("lattice-orbit", 120),
    ("pairing-cokernel", 150),
    ("pairing-radical", 120),
    ("pairing-nondeg", 90),
    ("pairing-oracle", 6),
    ("heisenberg", 90),
    ("schrodinger", 96),
    ("invalid", 54),
)
# The seed's pairing documents: (file prefix, count, largest group order).
# Their groups are the same for every seed and the pairings on them are the
# seed's; the pairing requests use each "pairing" document twice.
# They are written once per run and shared by its passes; writing and
# deleting hundreds of files in every pass made set-up time track the file
# system rather than the program.
DOC_POOL = (("pairing", 180, 512), ("small", 16, 64))
NON_SKEW_ORDERS = (3, 4, 5, 6)
HEIS_CLI_TYPES = ((2,), (3,), (4,), (6,), (2, 2), (3, 3), (2, 4), (4, 4), (2, 2, 2))
SCHRO_CLI_TYPES = ((2,), (3,), (5,), (2, 2), (3, 3), (2, 4), (4, 4), (2, 2, 2)) + ((8, 8),) * 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _ord2(n: int) -> int:
    return (abs(n) & -abs(n)).bit_length() - 1


def _qz(num: int, den: int) -> str:
    f = Fraction(num, den) % 1
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------- sweep-battery


class SweepBattery:
    """`sweeps.run_all()` at its default ranges; each check of a sweep is one request."""

    name = SWEEP_BATTERY

    def __init__(self, seed: int, workdir: str):
        self.inputs = ()  # the sweeps carry their own fixed seeds

    def prepare(self, hk):
        self.hk = hk

    def start(self, tracer):
        # Guard every binding of each sweep: the guard starts the clock of its
        # first check and turns an exception into a failure of that sweep's
        # checks, so run_all goes on.
        from tracer import Rebinder

        self.records = []
        self.spans = []
        self._mark = [0.0]  # when the running sweep's latest check began
        self.aborted = None
        self._rebinder = Rebinder()
        for fname in EXPECTED_SWEEP_CHECKS:
            fn = getattr(self.hk.sweeps, fname)
            self._rebinder.replace(fn, self._guard(fname, fn, tracer))
        self._rebinder.replace(self.hk.sweeps._tally, self._timed_tally(self.hk.sweeps._tally))

    def _timed_tally(self, tally):
        # Every sweep hands its checks to _tally as a lazy generator: time each
        # check from the end of the one before it (or from the sweep's start).
        spans, mark = self.spans, self._mark
        clock = time.perf_counter

        def timed(outcomes):
            for ok in outcomes:
                t1 = clock()
                spans.append((mark[0], t1))
                mark[0] = t1
                yield ok

        return lambda name, outcomes: tally(name, timed(outcomes))

    def _guard(self, fname, fn, tracer):
        records, mark = self.records, self._mark
        clock = time.perf_counter

        def guarded(*args, **kwargs):
            if tracer is not None:
                tracer.run_id = len(records)
            mark[0] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # counted as failed checks in verify()
                result = exc
            records.append((fname, result))
            return None if isinstance(result, Exception) else result

        return guarded

    def run(self, tracer) -> list[tuple[float, float]]:
        try:
            self.hk.sweeps.run_all()
        except Exception as exc:
            self.aborted = f"run_all raised {exc!r}"
        return self.spans

    def stop(self):
        self._rebinder.restore()

    def verify(self) -> tuple[int, int, list[str]]:
        attempted = sum(EXPECTED_SWEEP_CHECKS.values())
        failures = [self.aborted] if self.aborted else []
        checks = 0
        seen = set()
        for fname, result in self.records:
            seen.add(fname)
            expected = EXPECTED_SWEEP_CHECKS[fname]
            if isinstance(result, Exception):
                failures.append(f"{fname} raised {result!r}")
            elif result.failed or result.passed != expected:
                failures.append(f"{fname}: passed={result.passed} failed={result.failed}, "
                                f"expected {expected} checks")
            else:
                checks += result.passed
        failures += [f"{f} was not run" for f in EXPECTED_SWEEP_CHECKS if f not in seen]
        return attempted, checks, failures


# ------------------------------------------------------------- heisenberg-suite


def _quotient_coords(d):
    n = math.lcm(*d)
    grid = [()]
    for di in d:
        grid = [c + (v,) for c in grid for v in range(di)]
    return [(t, x, f) for t in range(n) for x in grid for f in grid]


def heisenberg_inputs(seed: int) -> list[tuple]:
    """Checks as ("pair", d, a, b), ("norm", d) or ("nondeg", d); a, b = (t, x, f), t in units 1/N."""
    rng = _rng(HEISENBERG_SUITE, seed)
    checks = []
    for d in HEIS_EXHAUSTIVE:
        elems = _quotient_coords(d)
        checks += [("pair", d, a, b) for a in elems for b in elems]
    for d, count in HEIS_SAMPLED:
        n = math.lcm(*d)

        def elem():
            return (rng.randrange(n), tuple(rng.randrange(di) for di in d),
                    tuple(rng.randrange(di) for di in d))

        checks += [("pair", d, elem(), elem()) for _ in range(count)]
    for d in HEIS_WHOLE_TYPES:
        checks += [("norm", d), ("nondeg", d)]
    return checks


def expected_heisenberg_checks() -> int:
    exhaustive = sum(len(_quotient_coords(d)) ** 2 for d in HEIS_EXHAUSTIVE)
    return exhaustive + sum(c for _, c in HEIS_SAMPLED) + 2 * len(HEIS_WHOLE_TYPES)


class HeisenbergSuite:
    """Criterion-4 identities; each check (one pair, one type) is one request."""

    name = HEISENBERG_SUITE

    def __init__(self, seed: int, workdir: str):
        self.inputs = heisenberg_inputs(seed)

    def prepare(self, hk):
        self.hk = hk
        fin, heis = hk.finabgrp, hk.heisenberg
        made = {}

        def elem(d, coords):
            key = (d, coords)
            if key not in made:
                t, x, f = coords
                group = fin.FinAbGroup(d)
                made[key] = heis.HeisElem(fin.QmodZ(t, math.lcm(*d)), group.element(x),
                                          group.element(f))
            return made[key]

        self.checks = [
            (c[0], c[1], elem(c[1], c[2]), elem(c[1], c[3])) if c[0] == "pair" else c
            for c in self.inputs
        ]

    def start(self, tracer):
        pass

    def stop(self):
        pass

    def _check(self, check) -> bool:
        h = self.hk.heisenberg
        kind, d = check[0], check[1]
        if kind == "pair":
            a, b = check[2], check[3]
            ma, mb = h.schrodinger_matrix(a), h.schrodinger_matrix(b)
            mab = h.gpm_mul(ma, mb)
            if mab != h.schrodinger_matrix(h.h_mul(a, b)):
                return False
            comm = h.gpm_mul(mab, h.gpm_mul(h.gpm_inv(ma), h.gpm_inv(mb)))
            return h.gpm_scalar_phase(comm) == h.h_commutator(a, b)
        if kind == "norm":
            return h.character_norm(d) == 1
        return self.hk.finabgrp.is_nondegenerate(h.heis_pairing(d))

    def run(self, tracer) -> list[tuple[float, float]]:
        clock = time.perf_counter
        spans = []
        self.outcomes = []
        t0 = clock()
        for i, check in enumerate(self.checks):
            if tracer is not None:
                tracer.run_id = i
            try:
                ok = self._check(check)
            except Exception as exc:
                ok = exc
            self.outcomes.append(ok)
            t1 = clock()
            spans.append((t0, t1))
            t0 = t1
        return spans

    def verify(self) -> tuple[int, int, list[str]]:
        failures = [
            f"{c[0]} {c[1]} {c[2:] if c[0] == 'pair' else ''}: {ok!r}"
            for c, ok in zip(self.inputs, self.outcomes)
            if ok is not True
        ]
        return expected_heisenberg_checks(), sum(ok is True for ok in self.outcomes), failures


# ---------------------------------------------------------------- report-stream


def _elem_text(elem, n) -> str:
    t, x, f = elem
    return f"{t}/{n};({','.join(map(str, x))});({','.join(map(str, f))})"


def _random_elem(rng, d):
    return (rng.randrange(math.lcm(*d)), tuple(rng.randrange(di) for di in d),
            tuple(rng.randrange(di) for di in d))


def _div0(n: int, div: int) -> int:
    return div if _ord2(n + 1) >= _ord2(div) else div // 2


def _vector(rng, rank, primitive=False):
    while True:
        v = [rng.randint(-20, 20) for _ in range(rank)]
        if any(v):
            g = math.gcd(*v) if primitive else 1
            return tuple(c // g for c in v)


# For each n, the x0 in [-200, 200] with 2(n+1) | x0^2 - 1 and an even quotient.
_ORBIT_X0 = {
    n: [x for x in range(-200, 201) if (x * x - 1) % (2 * (n + 1)) == 0
        and ((x * x - 1) // (2 * (n + 1))) % 2 == 0]
    for n in range(2, 51)
}


def _orbit_input(rng):
    # alpha = 2(n+1)*beta + x0*delta with beta^2 = k = (x0^2-1)/(2(n+1)) even:
    # the classes that kum_orbit_split accepts (square -2(n+1), div 2(n+1)).
    n = rng.choice([n for n, x0s in _ORBIT_X0.items() if x0s])
    two_n1 = 2 * (n + 1)
    x0 = rng.choice(_ORBIT_X0[n])
    k = (x0 * x0 - 1) // two_n1
    s, t, w, z = (rng.randint(-5, 5) for _ in range(4))
    beta = (k // 2 - s * t - w * z, 1, s, t, w, z)
    return n, tuple(two_n1 * b for b in beta) + (x0,)


def _group_orders(rng, max_order) -> list[int]:
    while True:
        r = rng.randint(2, 6)
        orders = [rng.choice((2, 2, 3, 3, 4, 5, 6, 8, 9, 12)) for _ in range(r)]
        if math.prod(orders) <= max_order:
            return orders


def _pairing_doc(rng, orders):
    r = len(orders)
    matrix = [["0/1"] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            g = math.gcd(orders[i], orders[j])
            k = rng.randrange(g)
            matrix[i][j], matrix[j][i] = _qz(k, g), _qz(-k, g)
    return {"orders": orders, "matrix": matrix}


def report_docs(seed: int) -> dict[str, dict]:
    """Pairing documents by file name: random skew pairings, small ones for
    --oracle requests, and non-skew ones that must be refused."""
    groups = random.Random(f"{REPORT_STREAM}-doc-groups")
    rng = random.Random(f"{REPORT_STREAM}-docs:{seed}")
    docs = {}
    for prefix, count, max_order in DOC_POOL:
        for i in range(count):
            docs[f"{prefix}-{i}.json"] = _pairing_doc(rng, _group_orders(groups, max_order))
    for o in NON_SKEW_ORDERS:
        docs[f"nonskew-{o}.json"] = {"orders": [o, o], "matrix": [["0/1", f"1/{o}"], [f"1/{o}", "0/1"]]}
    return docs


def _doc_name(prefix: str, j: int) -> str:
    count = next(c for p, c, _ in DOC_POOL if p == prefix)
    return f"{prefix}-{j % count}.json"


def _invalid(rng, docdir, choice):
    # Inputs that must be refused with exit 1 and one "error:" line; choice in range(8).
    n = rng.randint(2, 20)
    if choice == 0:
        return ["kummer", f"--n={n}", "--div=1", f"--q={2 * rng.randint(-50, 50) + 1}"], None
    if choice == 1:
        return ["og6", f"--div={rng.randint(3, 9)}", f"--q={2 * rng.randint(1, 50)}"], None
    if choice == 2:
        return ["rank4", f"--e={16 * rng.randint(1, 50) + rng.choice((0, 2, 4, 6, 8, 12, 14))}"], None
    if choice == 3:
        vec = ",".join(map(str, _vector(rng, 7)))
        return ["lattice", "q", "--lattice=og6", f"--vector={vec}"], None
    if choice == 4:
        vec = ",".join(map(str, _vector(rng, 7, primitive=True)))
        return ["lattice", "class", f"--lattice=kum:{n}", f"--vector={vec}"], None
    if choice == 5:
        a = rng.randint(1, 9)
        vec = f"{a},{a + 1},0,0,0,0,0"  # positive square, never -2(n+1)
        return ["lattice", "orbit", f"--lattice=kum:{n}", f"--vector={vec}"], None
    if choice == 6:
        name = f"nonskew-{rng.choice(NON_SKEW_ORDERS)}.json"
        return ["pairing", "cokernel", f"--file={os.path.join(docdir, name)}"], name
    d = rng.choice(((2, 2), (3, 3), (2, 4)))
    return ["heisenberg", "commutator", f"--d={','.join(map(str, d))}", "--a=0;(1);(0,1)",
            "--b=0;(1,0);(0,1)"], None


def report_inputs(seed: int, docdir: str) -> list[dict]:
    """Requests as {"kind", "argv", "params", "doc"}; "doc" names a file of report_docs(seed) in docdir."""
    rng = _rng(REPORT_STREAM, seed)
    requests = []
    pairing_requests = 0
    for kind, count in REPORT_MIX:
        for j in range(count):
            params, doc = {}, None
            if kind == "kummer-q":
                n = rng.randint(2, 30)
                div = rng.choice(_divisors(2 * (n + 1)))
                q = 2 * _div0(n, div) * rng.randint(-30, 30)
                params = {"n": n, "div": div, "q": q}
                argv = ["kummer", f"--n={n}", f"--div={div}", f"--q={q}"]
            elif kind == "kummer-class":
                n, a1 = rng.randint(2, 30), rng.randint(1, 40)
                a2 = a1 * rng.randint(1, 10)
                x = rng.choice([x for x in range(41) if math.gcd(a1, x) == 1])
                params = {"n": n, "a1": a1, "a2": a2, "x": x}
                argv = ["kummer", f"--n={n}", f"--a1={a1}", f"--a2={a2}", f"--x={x}"]
            elif kind == "og6":
                div = rng.choice((1, 2))
                q = 2 * rng.randint(-100, 200) if div == 1 else 8 * rng.randint(-25, 50) + rng.choice((4, 6))
                params = {"div": div, "q": q}
                argv = ["og6", f"--div={div}", f"--q={q}"]
            elif kind == "rank4":
                e = 16 * rng.randint(1, 300) - 6
                params = {"e": e}
                argv = ["rank4", f"--e={e}"]
            elif kind.startswith("lattice-") and kind != "lattice-orbit":
                question = kind.split("-")[1]
                if question == "class" or rng.random() < 0.5:
                    lattice, vec = "og6", _vector(rng, 8, primitive=question == "class")
                else:
                    lattice, vec = f"kum:{rng.randint(2, 50)}", _vector(rng, 7)
                params = {"lattice": lattice, "vector": vec}
                argv = ["lattice", question, f"--lattice={lattice}",
                        f"--vector={','.join(map(str, vec))}"]
            elif kind == "lattice-orbit":
                n, vec = _orbit_input(rng)
                params = {"n": n, "vector": vec}
                argv = ["lattice", "orbit", f"--lattice=kum:{n}",
                        f"--vector={','.join(map(str, vec))}"]
            elif kind.startswith("pairing-"):
                oracle = kind == "pairing-oracle"
                question = "cokernel" if oracle else kind.split("-")[1]
                if oracle:
                    doc = _doc_name("small", j)
                else:
                    doc = _doc_name("pairing", pairing_requests)
                    pairing_requests += 1
                argv = ["pairing", question, f"--file={os.path.join(docdir, doc)}"]
                argv += ["--oracle"] if oracle else []
            elif kind == "heisenberg":
                d = HEIS_CLI_TYPES[j % len(HEIS_CLI_TYPES)]
                a, b = _random_elem(rng, d), _random_elem(rng, d)
                n = math.lcm(*d)
                params = {"d": d, "a": a, "b": b}
                argv = ["heisenberg", "commutator", f"--d={','.join(map(str, d))}",
                        f"--a={_elem_text(a, n)}", f"--b={_elem_text(b, n)}"]
            elif kind == "schrodinger":
                d = SCHRO_CLI_TYPES[j % len(SCHRO_CLI_TYPES)]
                elem = _random_elem(rng, d)
                params = {"d": d, "elem": elem}
                argv = ["schrodinger", "matrix", f"--d={','.join(map(str, d))}",
                        f"--elem={_elem_text(elem, math.lcm(*d))}"]
            else:
                argv, doc = _invalid(rng, docdir, j % 8)
            if rng.random() < 0.5:
                argv.append("--json")
            requests.append({"kind": kind, "argv": argv, "params": params, "doc": doc})
    rng.shuffle(requests)
    return requests


def _parse_text_record(text: str) -> dict:
    # "key: value" lines as the CLI prints them: bools lowercase, lists "[a, b]"
    record = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if value in ("true", "false"):
            record[key] = value == "true"
        elif value.startswith("["):
            record[key] = [int(v) for v in value[1:-1].split(", ") if v]
        else:
            try:
                record[key] = int(value)
            except ValueError:
                record[key] = value
    return record


def _factors_of_squares(a: int, b: int) -> list[int]:
    # invariant factors of (Z/a)^2 + (Z/b)^2: Z/a + Z/b = Z/gcd + Z/lcm
    g = math.gcd(a, b)
    return [f for f in (g, g, a * b // g, a * b // g) if f > 1]


def _kum_record(n, div, q, cokernel):
    d0 = _div0(n, div)
    rec = {"family": "kum", "n": n, "div": div, "q": q, "div0": d0,
           "m": math.gcd(n + 1, q // (2 * d0)), "cokernel": cokernel,
           "is_heisenberg": not cokernel}
    if q > 0:
        rec["h0"] = (n + 1) * math.comb(q // 2 + n, n)
        if not cokernel:
            rec["multiplicity"] = rec["h0"] // (n + 1) ** 2
    return rec


def expected_theta_record(kind: str, p: dict) -> dict:
    """Theta report from the closed forms, written independently of `invariants`."""
    if kind == "kummer-q":
        d0 = _div0(p["n"], p["div"])
        m = math.gcd(p["n"] + 1, p["q"] // (2 * d0))
        return _kum_record(p["n"], p["div"], p["q"], _factors_of_squares(d0, m))
    if kind == "kummer-class":
        n, a1, a2 = p["n"], p["a1"], p["a2"]
        b1, b2 = math.gcd(n + 1, a1), math.gcd(n + 1, a2)
        rec = {"family": "kum", "n": n, "a1": a1, "a2": a2, "x": p["x"], "b1": b1, "b2": b2}
        base = _kum_record(n, math.gcd(2 * (n + 1), a1), 2 * a1 * a2, _factors_of_squares(b1, b2))
        rec.update((k, v) for k, v in base.items() if k not in ("family", "n"))
        return rec
    if kind == "og6":
        div, q = p["div"], p["q"]
        cokernel = [2] * 8 if div == 2 else ([] if q % 4 else [2] * 4)
        rec = {"family": "og6", "div": div, "q": q, "cokernel": cokernel,
               "is_heisenberg": not cokernel}
        if q > 0:
            rec["h0"] = 4 * math.comb(q // 2 + 3, 3)
            if not cokernel:
                rec["multiplicity"] = rec["h0"] // 16
        return rec
    e = p["e"]
    cokernel = [3, 3] if e % 3 == 0 else []
    rec = {"family": "rank4", "div": 2, "q": e, "cokernel": cokernel, "is_heisenberg": not cokernel,
           "h0": 3 * math.comb((e + 6) // 16 + 2, 2)}
    if not cokernel:
        rec["multiplicity"] = rec["h0"] // 9
    return rec


def _gram(lattice: str):
    rank = 8 if lattice == "og6" else 7
    tail = (-2, -2) if lattice == "og6" else (-2 * (int(lattice.split(":")[1]) + 1),)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(0, 6, 2):
        gram[i][i + 1] = gram[i + 1][i] = 1
    for i, t in enumerate(tail):
        gram[6 + i][6 + i] = t
    return gram


def _gram_times(gram, v):
    return [sum(g * c for g, c in zip(row, v)) for row in gram]


def _u4_square(v) -> int:
    return 2 * sum(v[i] * v[i + 1] for i in range(0, 8, 2))


def _orbit_problem(n, v, r) -> str | None:
    # Direct checks of the splitting alpha = p*e + q*f in the ambient U^4.
    two_n1 = 2 * (n + 1)
    p, q, e, f = r["p"], r["q"], r["e"], r["f"]
    ambient = list(v[:6]) + [v[6], -(n + 1) * v[6]]
    if r["x0"] != v[6] or r["beta"] != [c // two_n1 for c in v[:6]]:
        return "x0 or beta does not match the input class"
    if p <= 0 or q <= 0 or p * q != n + 1 or (v[6] - 1) % (2 * p) or (v[6] + 1) % (2 * q):
        return f"bad factorization p={p} q={q}"
    if _u4_square(e) or _u4_square(f):
        return "witnesses are not isotropic"
    if [p * a + q * b for a, b in zip(e, f)] != ambient:
        return "p*e + q*f does not reconstruct the class"
    return None


def _schrodinger_expected(d, elem):
    t, x, f = elem
    n = math.lcm(*d)
    dim = math.prod(d)
    perm, phases = [], []
    for col in range(dim):
        y, rest = [], col
        for di in d:
            rest, c = divmod(rest, di)
            y.append(c)
        w = [(yi - xi) % di for yi, xi, di in zip(y, x, d)]
        idx = 0
        for c, di in zip(reversed(w), reversed(d)):
            idx = idx * di + c
        perm.append(idx)
        phase = Fraction(t, n) + sum(Fraction(fi * wi, di) for fi, wi, di in zip(f, w, d))
        phases.append(_qz(phase.numerator, phase.denominator))
    return {"dim": dim, "perm": perm, "phases": phases}


def _commutator_expected(d, a, b) -> str:
    # scalar of a b a^-1 b^-1 for a = (t,x,f), b = (s,y,g): <g,x> - <f,y>
    (_, x, f), (_, y, g) = a, b
    value = sum(Fraction(gi * xi - fi * yi, di) for gi, xi, fi, yi, di in zip(g, x, f, y, d))
    return _qz(value.numerator, value.denominator)


class ReportStream:
    """Independent in-process `cli.main(argv)` requests, stdout and stderr captured."""

    name = REPORT_STREAM

    def __init__(self, seed: int, workdir: str):
        self.docdir = os.path.join(workdir, f"{REPORT_STREAM}-docs-{seed}")
        self.docs = report_docs(seed)
        self.inputs = report_inputs(seed, self.docdir)

    def prepare(self, hk):
        self.hk = hk
        os.makedirs(self.docdir, exist_ok=True)
        for name, doc in self.docs.items():
            path = os.path.join(self.docdir, name)
            if not os.path.exists(path):  # written by the run's first pass
                with open(path + ".tmp", "w", encoding="utf-8") as out:
                    json.dump(doc, out)
                os.replace(path + ".tmp", path)

    def start(self, tracer):
        pass

    def stop(self):
        pass

    def run(self, tracer) -> list[tuple[float, float]]:
        cli = self.hk.cli
        clock = time.perf_counter
        spans = []
        self.responses = []
        t0 = clock()
        for i, req in enumerate(self.inputs):
            if tracer is not None:
                tracer.run_id = i
            out, err = io.StringIO(), io.StringIO()
            error = None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(req["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code, error = None, f"{type(exc).__name__}: {exc}"
            self.responses.append((code, out.getvalue(), err.getvalue(), error))
            t1 = clock()
            spans.append((t0, t1))
            t0 = t1
        return spans

    def verify(self) -> tuple[int, int, list[str]]:
        self._other_route = {}
        failures = []
        for req, resp in zip(self.inputs, self.responses):
            try:
                problem = self._problem(req, *resp)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable answer ({exc!r}): {resp[1][:80]!r}"
            if problem:
                failures.append(f"{' '.join(req['argv'])}: {problem}")
        return sum(count for _, count in REPORT_MIX), len(self.inputs) - len(failures), failures

    def _problem(self, req, code, out, err, error) -> str | None:
        kind, p, as_json = req["kind"], req["params"], "--json" in req["argv"]
        if error is not None:
            return f"uncaught {error}"
        if kind == "invalid":
            if code != 1 or out or not err.startswith("error: ") or err.count("\n") != 1:
                return f"expected a one-line domain error with exit 1, got exit {code}: {err!r}"
            return None
        if code != 0 or err:
            return f"exit {code}: {err.strip()!r}"
        got = json.loads(out) if as_json else None
        if kind in ("kummer-q", "kummer-class", "og6", "rank4"):
            want = expected_theta_record(kind, p)
            got = got if as_json else _parse_text_record(out)
            return None if got == want else f"report {got} != closed form {want}"
        if kind in ("lattice-q", "lattice-div", "lattice-class"):
            gram, v = _gram(p["lattice"]), p["vector"]
            gv = _gram_times(gram, v)
            square, div = sum(a * b for a, b in zip(v, gv)), math.gcd(*gv)
            if kind == "lattice-q":
                key, want = "q", square
            elif kind == "lattice-div":
                key, want = "div", div
            else:
                key = "class"
                want = "I" if div == 1 else {6: "II", 4: "III"}.get(square % 8, "?")
            value = got[key] if as_json else out.strip()
            return None if str(value) == str(want) else f"{key} {value} != Gram product {want}"
        if kind == "lattice-orbit":
            return _orbit_problem(p["n"], p["vector"], got if as_json else _parse_text_record(out))
        if kind.startswith("pairing-"):
            fin = self.hk.finabgrp
            key = (req["doc"], kind == "pairing-oracle")
            if key not in self._other_route:
                pairing = fin.pairing_from_dict(self.docs[req["doc"]])
                # --oracle answered by enumeration, so check it by Smith form; the
                # rest by enumeration: ker E = coker E for a skew pairing (E^ = -E)
                route = fin.pairing_cokernel if key[1] else fin.brute_cokernel
                self._other_route[key] = route(pairing)
            want = self._other_route[key]
            if kind == "pairing-nondeg":
                value = got["nondegenerate"] if as_json else out.strip() == "true"
                return None if value == want.is_trivial() else f"nondeg {value}, cokernel {want}"
            key = "radical" if kind == "pairing-radical" else "cokernel"
            value = got[key] if as_json else out.strip()
            want_value = list(want.invariant_factors) if as_json else str(want)
            return None if value == want_value else f"{key} {value} != other route {want_value}"
        if kind == "heisenberg":
            value = got["commutator"] if as_json else out.strip()
            want = _commutator_expected(p["d"], p["a"], p["b"])
            return None if value == want else f"commutator {value} != <g,x>-<f,y> = {want}"
        want = _schrodinger_expected(p["d"], p["elem"])
        if not as_json:
            lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
            got = {"dim": int(lines["dim"]), "perm": [int(v) for v in lines["perm"].split()],
                   "phases": lines["phases"].split()}
        return None if got == want else "matrix differs from the closed form"


WORKLOADS = {w.name: w for w in (SweepBattery, HeisenbergSuite, ReportStream)}
