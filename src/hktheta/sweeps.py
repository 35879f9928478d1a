"""Deterministic property sweeps over the closed-form invariant layer.

Each sweep checks one verifiable claim over a fixed range, stated in its
docstring, and reports its pass/fail counts and seconds.  A sweep is a named,
zero-argument generator of checks, made public by `_sweep(name)`; its setup is
tallied too, so an exception there is one counted failure with a witness, as
one raised by a check is.  `run_all` runs the battery `SWEEPS` in order; it
backs `hktheta sweep`, and the acceptance tests call single sweeps.  All
randomness is seeded, so every run checks the identical sample.
"""

from __future__ import annotations

import math
import random
import time
from functools import lru_cache, wraps
from itertools import chain, product

from .arith import Record, divisors
from .finabgrp import (
    AbGroupStructure,
    OG6PairingCase,
    _pairing_units,
    brute_cokernel,
    pairing_cokernel,
    standard_kum_pairing,
    standard_og6_pairing,
    tensor_pairing,
)
from .invariants import (
    Family,
    LineBundleInvariants,
    kum_class_invariants,
    kum_cokernel,
    kum_div0_m,
    kum_is_heisenberg,
    og6_cokernel,
    rank4_a,
    theta_report,
)
from .lattices import OG6Class, kum_orbit_split, kum_split_candidates, og6_class


class SweepResult(Record):
    """A sweep's counts and seconds; witnesses name an exception that ended it."""

    __slots__ = ("name", "passed", "failed", "seconds", "witnesses")

    def __init__(self, name: str, passed: int, failed: int, seconds: float,
                 witnesses: tuple[str, ...] = ()):
        self._set(name, passed, failed, seconds, witnesses)


def _tally(name: str, outcomes) -> SweepResult:
    # an exception raised inside the outcomes ends the sweep as one failed
    # check, named in witnesses, so the rest of the battery still runs
    passed = failed = 0
    witnesses = ()
    start = time.perf_counter()
    try:
        for ok in outcomes:
            if ok:
                passed += 1
            else:
                failed += 1
    except Exception as exc:
        failed += 1
        witnesses = (f"{type(exc).__name__}: {exc}",)
    return SweepResult(name, passed, failed, time.perf_counter() - start, witnesses)


def _sweep(name: str):
    """A zero-argument generator of checks as the sweep `name`: a call tallies its checks,
    setup included; _tally is read per call, so a rebound _tally is the one used."""
    def decorate(checks):
        @wraps(checks)
        def sweep() -> SweepResult:
            return _tally(name, checks())
        return sweep
    return decorate


@lru_cache(maxsize=None)
def _byte_table(lo: int, hi: int) -> tuple[bytes, bytes]:
    # byte b -> lo + b % span, stored as a signed byte; the bytes at or above
    # the largest multiple of span are the ones to delete, so every value in
    # [lo, hi] keeps exactly 256 // span preimages
    span = hi - lo + 1
    table = bytes((lo + b % span) & 0xFF for b in range(256))
    return table, bytes(range(256 - 256 % span, 256))


def _draw(rng: random.Random, lo: int, hi: int, k: int) -> memoryview:
    """k seeded values, each uniform on [lo, hi] (-128 <= lo <= hi <= 127):
    random bytes mapped and rejection-sampled by one bytes.translate, in C,
    then read as signed bytes."""
    table, rejected = _byte_table(lo, hi)
    out = b""
    while len(out) < k:
        out += rng.randbytes(k - len(out) + k // 32 + 8).translate(table, rejected)
    return memoryview(out[:k]).cast("b")


@_sweep("kum criterion agreement")
def sweep_kum_criterion():
    """Cokernel triviality matches the closed-form Heisenberg criterion,
    for 2 <= n <= 12, every div | 2(n+1) and every q in [-200, 200] that
    2*div0 divides: every key the closed forms accept, realisable or not."""
    for n in range(2, 13):
        for div in divisors(2 * (n + 1)):
            step = 2 * kum_div0_m(n, div, 0)[0]
            for q in range(-(200 // step) * step, 201, step):
                yield kum_cokernel(n, div, q).is_trivial() == kum_is_heisenberg(n, div, q)


@lru_cache(maxsize=None)
def _standard_kum_cokernels(n: int, b1: int, b2: int) -> tuple[AbGroupStructure, ...]:
    pairing = standard_kum_pairing(n, b1, b2)
    return pairing_cokernel(pairing), brute_cokernel(pairing)


@_sweep("kum three-way agreement")
def sweep_kum_three_way():
    """(div, q) closed form at the class's key == Smith form == enumeration on the class's
    model pairing, whose multipliers gcd(n+1, a_i) are the sweep's own input (cached per model),
    for 2 <= n <= 10, a1 | a2 <= 36, x in {0, 1}, gcd(a1, x) = 1."""
    for n in range(2, 11):
        for a1 in range(1, 37):
            for a2 in range(a1, 37, a1):
                for x in (0, 1):
                    if math.gcd(a1, x) != 1:
                        continue
                    inv = kum_class_invariants(n, a1, a2, x)
                    smith, brute = _standard_kum_cokernels(
                        n, math.gcd(n + 1, a1), math.gcd(n + 1, a2))
                    yield kum_cokernel(n, inv.div, inv.q) == smith == brute


_OG6_CASES = (
    (OG6PairingCase.DIV1_NOT4, 1, 2),
    (OG6PairingCase.DIV1_DIV4, 1, 4),
    (OG6PairingCase.DIV2, 2, -2),
)


@_sweep("og6 model agreement")
def sweep_og6_model():
    """Closed-form values match both cokernel routes on the model pairings,
    for the three cases of OG6PairingCase."""
    for case, div, q in _OG6_CASES:
        pairing = standard_og6_pairing(case)
        expected = og6_cokernel(div, q)
        yield expected == pairing_cokernel(pairing) == brute_cokernel(pairing)


@_sweep("kum section divisibility")
def sweep_kum_sections():
    """(n+1)^2 divides h0 in the Heisenberg range; multiplicity 1 only at e=1;
    for div 1, q = 2e, 2 <= n <= 20 and 1 <= e <= 100 with gcd(n+1, e) = 1."""
    for n in range(2, 21):
        for e in range(1, 101):
            if math.gcd(n + 1, e) != 1:
                continue
            rep = theta_report(
                LineBundleInvariants(family=Family.KUM, div=1, q=2 * e, n=n)
            )
            yield (
                rep.is_heisenberg
                and rep.h0 % (n + 1) ** 2 == 0
                and (rep.schrodinger_multiplicity == 1) == (e == 1)
            )


@_sweep("og6 section divisibility")
def sweep_og6_sections():
    """16 divides h0 for odd e; multiplicity 1 only at e=1; for div 1, q = 2e
    and odd e in [1, 199]."""
    for e in range(1, 200, 2):
        rep = theta_report(LineBundleInvariants(family=Family.OG6, div=1, q=2 * e))
        yield (
            rep.is_heisenberg
            and rep.h0 == 4 * math.comb(e + 3, 3)
            and rep.h0 % 16 == 0
            and (rep.schrodinger_multiplicity == 1) == (e == 1)
        )


@_sweep("rank4 consistency")
def sweep_rank4_consistency():
    """Across e = 16a-6: triviality iff 3 does not divide a (iff e); h0 checks;
    for 1 <= a <= 50."""
    for a in range(1, 51):
        e = 16 * a - 6
        rep = theta_report(LineBundleInvariants(family=Family.RANK4, div=2, q=e))
        yield (
            rank4_a(e) == a
            and rep.cokernel.is_trivial() == (a % 3 != 0) == (e % 3 != 0)
            and rep.h0 == 3 * math.comb(a + 2, 2)
            and (not rep.is_heisenberg or rep.h0 % 9 == 0)
        )


def _merged(*forms):
    """The forms' entries (i, j, u) summed by position: one per (i, j), zeros dropped."""
    sums = {}
    for i, j, u in chain(*forms):
        sums[i, j] = sums.get((i, j), 0) + u
    return [(i, j, u) for (i, j), u in sums.items() if u]


@_sweep("tensor additivity")
def sweep_tensor_additivity():
    """Pointwise additivity of tensor_pairing on the model Kummer pairings, for n in {2, 3, 5}
    and every b1, b2, c1, c2 dividing n+1: on each pair of model pairings, at the 16 pairs of
    generators and 40 seeded random pairs (320 coordinates uniform on [0, n], from random
    bytes), one _pairing_units call over the entries of t = tensor_pairing(p1, p2), -p1 and
    -p2, summed by position (_merged), yields (n+1)(e_t - e_1 - e_2), a multiple of n+1."""
    rng = random.Random(11)
    gen_pairs = list(product([tuple(int(i == j) for j in range(4)) for i in range(4)], repeat=2))
    for n in (2, 3, 5):
        models = [standard_kum_pairing(n, *b) for b in product(divisors(n + 1), repeat=2)]
        negated = [tuple((i, j, -u) for i, j, u in p._entries) for p in models]
        for (p1, m1), (p2, m2) in product(zip(models, negated), repeat=2):
            signed = _merged(tensor_pairing(p1, p2)._entries, m1, m2)
            quads = zip(*[iter(_draw(rng, 0, n, 320))] * 4)
            yield not any(s % (n + 1) for s in
                          _pairing_units(signed, chain(gen_pairs, zip(quads, quads))))


@_sweep("orbit splitting")
def sweep_orbit_split():
    """Wall-divisor splitting over every admissible x0: for 2 <= n <= 50 and |x0| <= 200
    with 2(n+1) | x0^2 - 1, let k = (x0^2-1)/(2(n+1)).  When k is even a witness class
    alpha exists (beta = (k/2)e1 + f1), and the splitting must succeed, be unique and
    reconstruct alpha from isotropic vectors (kum_orbit_split asserts that internally).
    When k is odd no class realizes x0 (beta^2 = k is impossible in an even lattice, which
    forces 4 | n+1), nor does any integral splitting exist: the sweep checks that instead.
    """
    for n in range(2, 51):
        two_n1 = 2 * (n + 1)
        for x0 in range(-200, 201):
            if (x0 * x0 - 1) % two_n1:
                continue
            k = (x0 * x0 - 1) // two_n1
            if k % 2 == 0:
                beta = (k // 2, 1, 0, 0, 0, 0)
                alpha = tuple(two_n1 * b for b in beta) + (x0,)
                split = kum_orbit_split(n, alpha)
                yield (
                    split.x0 == x0
                    and split.p > 0
                    and split.p * split.q == n + 1
                    and (x0 - 1) % split.p == 0
                    and (x0 + 1) % split.q == 0
                    and split.beta == beta
                )
            else:
                yield (n + 1) % 4 == 0 and not kum_split_candidates(n, x0)


_OG6_I, _OG6_DIV2_CLASS = OG6Class.I, {6: OG6Class.II, 4: OG6Class.III}  # by q mod 8


@_sweep("og6 trichotomy")
def sweep_og6_trichotomy():
    """Random primitive vectors land in exactly one class, with div in {1,2}:
    10,000 seeded nonzero vectors of 8 coordinates uniform on [-10, 10],
    drawn from random bytes in blocks of up to 1,000 vectors, each
    imprimitive one divided by its gcd.  The predicted class reads div and q
    off the explicit Gram matrix of U^3 + <-2> + <-2> on (e1,f1,e2,f2,e3,f3,g1,g2):
    div = gcd(e1, f1, e2, f2, e3, f3, 2g1, 2g2) and
    q = 2(e1f1 + e2f2 + e3f3 - g1^2 - g2^2); only og6_class goes through
    the lattices layer."""
    rng = random.Random(20260821)

    def vectors():
        produced = 0
        while produced < 10_000:
            c = _draw(rng, -10, 10, 8 * min(1_000, 10_000 - produced))
            for v in filter(any, zip(*[iter(c)] * 8)):
                produced += 1
                g = math.gcd(*v)
                yield v if g == 1 else tuple(x // g for x in v)

    for v in vectors():
        e1, f1, e2, f2, e3, f3, g1, g2 = v
        div = math.gcd(e1, f1, e2, f2, e3, f3, 2 * g1, 2 * g2)
        q = 2 * (e1 * f1 + e2 * f2 + e3 * f3 - g1 * g1 - g2 * g2)
        expected = _OG6_I if div == 1 else _OG6_DIV2_CLASS.get(q % 8) if div == 2 else None
        yield og6_class(v) is expected


SWEEPS = (
    sweep_kum_criterion,
    sweep_kum_three_way,
    sweep_og6_model,
    sweep_kum_sections,
    sweep_og6_sections,
    sweep_rank4_consistency,
    sweep_tensor_additivity,
    sweep_orbit_split,
    sweep_og6_trichotomy,
)


def run_all() -> list[SweepResult]:
    """Every sweep of SWEEPS, in order."""
    return [sweep() for sweep in SWEEPS]


__all__ = ["SweepResult", *(sweep.__name__ for sweep in SWEEPS), "SWEEPS", "run_all"]
