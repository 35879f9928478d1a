"""Acceptance gate: the seven headline guarantees, one pass/fail line each.

Each criterion is a single test function; `pytest -v` gives one line per
criterion, and `pytest -s` additionally shows explicit PASS/FAIL stamps.
All checks are exact — no tolerances — and the timed criteria assert their
own runtime budgets.
"""

import functools
import random
import time
from fractions import Fraction

from hktheta.arith import divisors
from hktheta.finabgrp import (
    FinAbGroup,
    OG6PairingCase,
    QmodZ,
    brute_cokernel,
    is_nondegenerate,
    pairing_cokernel,
    standard_kum_pairing,
    standard_og6_pairing,
)
from hktheta.heisenberg import (
    HeisElem,
    character_norm,
    gpm_inv,
    gpm_mul,
    gpm_scalar_phase,
    h_commutator,
    h_mul,
    heis_pairing,
    schrodinger_matrix,
)
from hktheta.invariants import (
    Family,
    LineBundleInvariants,
    kum_cokernel,
    og6_cokernel,
    rank4_cokernel,
    riemann_roch,
)
from hktheta.sweeps import (
    sweep_kum_criterion,
    sweep_kum_sections,
    sweep_og6_sections,
    sweep_og6_trichotomy,
    sweep_orbit_split,
)


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {num}: FAIL — {desc}")
                raise
            print(f"criterion {num}: PASS — {desc}")

        return run

    return wrap


@criterion(1, "golden cokernel and section-count values")
def test_criterion_1_golden_values():
    assert kum_cokernel(2, 1, 6).invariant_factors == (3, 3)
    assert og6_cokernel(1, 2).is_trivial()
    assert og6_cokernel(1, 4).invariant_factors == (2, 2, 2, 2)
    assert og6_cokernel(2, -2).invariant_factors == (2,) * 8
    assert rank4_cokernel(10).is_trivial()
    assert rank4_cokernel(42).invariant_factors == (3, 3)
    assert riemann_roch(LineBundleInvariants(family=Family.KUM, div=1, q=2, n=2)) == 9
    assert riemann_roch(LineBundleInvariants(family=Family.OG6, div=1, q=2)) == 16
    assert riemann_roch(LineBundleInvariants(family=Family.RANK4, div=2, q=10)) == 9


@criterion(2, "Smith-form and enumeration cokernels agree on every model pairing")
def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for b1 in divisors(n + 1):
            for b2 in divisors(n + 1):
                p = standard_kum_pairing(n, b1, b2)
                assert pairing_cokernel(p) == brute_cokernel(p)
                checked += 1
    for case in OG6PairingCase:
        p = standard_og6_pairing(case)
        assert pairing_cokernel(p) == brute_cokernel(p)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 40  # 37 divisor pairs over n in [2,6], plus 3 OG6 cases
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"


@criterion(3, "closed-form criterion matches cokernel triviality across the (div, q) grid")
def test_criterion_3_criterion_agreement():
    result = sweep_kum_criterion()
    assert result.failed == 0
    assert result.passed == 5301


def _quotient(d):
    j = FinAbGroup(d)
    n = j.exponent
    return [
        HeisElem(QmodZ(t, n), j.element(x), j.element(f))
        for t in range(n)
        for x in j.coord_tuples()
        for f in j.coord_tuples()
    ]


def _check_heis_suite_exhaustive(d):
    elems = _quotient(d)
    mats = [schrodinger_matrix(e) for e in elems]
    invs = [gpm_inv(m) for m in mats]
    index = {e: i for i, e in enumerate(elems)}
    for i, a in enumerate(elems):
        ma, ia = mats[i], invs[i]
        for k, b in enumerate(elems):
            mab = gpm_mul(ma, mats[k])
            assert mab == mats[index[h_mul(a, b)]]
            comm = gpm_mul(mab, gpm_mul(ia, invs[k]))
            assert gpm_scalar_phase(comm) == h_commutator(a, b)
    assert character_norm(d) == Fraction(1)
    assert is_nondegenerate(heis_pairing(d))


def _check_heis_suite_randomized(d, pairs):
    rng = random.Random(f"20260821-{d}")
    elems = _quotient(d)
    mats = [schrodinger_matrix(e) for e in elems]
    invs = [gpm_inv(m) for m in mats]
    index = {e: i for i, e in enumerate(elems)}
    for _ in range(pairs):
        i = rng.randrange(len(elems))
        k = rng.randrange(len(elems))
        a, b = elems[i], elems[k]
        mab = gpm_mul(mats[i], mats[k])
        assert mab == mats[index[h_mul(a, b)]]
        comm = gpm_mul(mab, gpm_mul(invs[i], invs[k]))
        assert gpm_scalar_phase(comm) == h_commutator(a, b)
    assert character_norm(d) == Fraction(1)
    assert is_nondegenerate(heis_pairing(d))


@criterion(4, "Schrodinger homomorphism, commutator identity, norm 1, nondegeneracy")
def test_criterion_4_heisenberg_suite():
    start = time.perf_counter()
    for d in [(2,), (3,), (4,), (2, 2), (3, 3)]:
        _check_heis_suite_exhaustive(d)
    _check_heis_suite_randomized((2, 2, 2, 2), pairs=10_000)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"Heisenberg suite took {elapsed:.1f}s"


@criterion(5, "section counts divisible by the Schrodinger dimension; multiplicity 1 only at e=1")
def test_criterion_5_section_divisibility():
    kum = sweep_kum_sections()
    assert kum.failed == 0 and kum.passed == 1156
    og6 = sweep_og6_sections()
    assert og6.failed == 0 and og6.passed == 100


@criterion(6, "wall splittings succeed, are unique, and reconstruct every realizable class")
def test_criterion_6_orbit_splitting():
    start = time.perf_counter()
    result = sweep_orbit_split()
    elapsed = time.perf_counter() - start
    assert result.failed == 0
    assert result.passed == 2180
    assert elapsed < 10.0, f"orbit splitting sweep took {elapsed:.1f}s"


@criterion(7, "random primitive OG6 vectors classify into exactly one of I/II/III")
def test_criterion_7_og6_trichotomy():
    result = sweep_og6_trichotomy()
    assert result.failed == 0
    assert result.passed == 10_000
