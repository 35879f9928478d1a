"""Cokernel formulas, Heisenberg criteria, section counts, reports."""

import math
import re

import pytest

from hktheta import invariants
from hktheta.arith import divisors
from hktheta.cli import main
from hktheta.finabgrp import AbGroupStructure, brute_cokernel, standard_kum_pairing
from hktheta.invariants import (
    MAX_H0_BITS,
    Family,
    LineBundleInvariants,
    kum_class_invariants,
    kum_cokernel,
    kum_div0_m,
    kum_is_heisenberg,
    og6_cokernel,
    og6_is_heisenberg,
    rank4_a,
    rank4_cokernel,
    rank4_is_heisenberg,
    report_to_dict,
    riemann_roch,
    theta_report,
)


def kum_inv(n, div, q):
    return LineBundleInvariants(family=Family.KUM, div=div, q=q, n=n)


def og6_inv(div, q):
    return LineBundleInvariants(family=Family.OG6, div=div, q=q)


def rank4_inv(e):
    return LineBundleInvariants(family=Family.RANK4, div=2, q=e)


# ---------------------------------------------------------------------------
# KUM building blocks


@pytest.mark.parametrize(
    "n, div, expected",
    [(2, 1, 1), (2, 2, 1), (2, 3, 3), (2, 6, 3), (3, 2, 2), (3, 8, 4), (5, 4, 2), (7, 4, 4)],
)
def test_div0_golden(n, div, expected):
    assert kum_div0_m(n, div, 0)[0] == expected


def _ord2_by_division(n):
    n, v = abs(n), 0
    while n % 2 == 0:
        n, v = n // 2, v + 1
    return v


def test_div0_matches_two_adic_rule():
    # reference, sharing no code with the gcd: the 2-adic rule, div when
    # ord_2(n+1) >= ord_2(div), else div/2
    for n in range(2, 400):
        for div in divisors(2 * (n + 1)):
            two_adic = div if _ord2_by_division(n + 1) >= _ord2_by_division(div) else div // 2
            assert kum_div0_m(n, div, 0)[0] == two_adic, (n, div)


def test_div0_validation():
    with pytest.raises(ValueError):
        kum_div0_m(2, 4, 0)  # 4 does not divide 6
    with pytest.raises(ValueError):
        kum_div0_m(1, 1, 0)
    with pytest.raises(ValueError):
        kum_div0_m(2, 0, 0)


@pytest.mark.parametrize(
    "n, q, div0, expected",
    [(2, 6, 1, 3), (2, 8, 1, 1), (3, 8, 2, 2), (2, -6, 1, 3), (4, 20, 1, 5), (2, 0, 1, 3)],
)
def test_m_golden(n, q, div0, expected):
    # div0 divides n+1, so div = div0 is a divisibility with gcd(n+1, div) = div0
    assert kum_div0_m(n, div0, q) == (div0, expected)


def test_m_validation():
    with pytest.raises(ValueError):
        kum_div0_m(3, 2, 6)  # 2*div0 = 4 does not divide 6


def test_kum_cokernel_golden():
    assert kum_cokernel(2, 1, 6).invariant_factors == (3, 3)
    assert kum_cokernel(2, 2, 8).is_trivial()
    assert kum_cokernel(3, 2, 8).invariant_factors == (2, 2, 2, 2)
    assert kum_cokernel(3, 8, 16).invariant_factors == (2, 2, 4, 4)
    assert kum_cokernel(2, 1, -6).invariant_factors == (3, 3)
    with pytest.raises(ValueError):
        kum_cokernel(2, 1, 3)  # odd square


def test_kum_is_heisenberg_golden():
    assert kum_is_heisenberg(2, 1, 2)
    assert kum_is_heisenberg(2, 2, 2)
    assert kum_is_heisenberg(2, 2, 8)
    assert not kum_is_heisenberg(2, 1, 6)
    assert not kum_is_heisenberg(3, 2, 8)  # div 2 with n odd
    assert not kum_is_heisenberg(3, 1, 4)  # gcd(4, 2) = 2
    for route in (kum_is_heisenberg, kum_cokernel):  # 2*div0 must divide q
        with pytest.raises(ValueError, match=r"^2\*div0 = 4 must divide q = 2$"):
            route(3, 2, 2)


def test_kum_criterion_iff_trivial_cokernel_small_grid():
    for n in (2, 3, 4, 5):
        for div in divisors(2 * (n + 1)):
            d0 = kum_div0_m(n, div, 0)[0]
            for q in range(-24, 26, 2):
                if q % (2 * d0):
                    continue
                assert kum_is_heisenberg(n, div, q) == kum_cokernel(n, div, q).is_trivial()


def test_kum_cokernel_matches_enumeration():
    cache = {}
    for n in (2, 3, 4):
        for div in divisors(2 * (n + 1)):
            d0 = kum_div0_m(n, div, 0)[0]
            for q in range(-18, 20, 2):
                if q % (2 * d0):
                    continue
                m = kum_div0_m(n, div, q)[1]
                key = (n, d0, m)
                if key not in cache:
                    cache[key] = brute_cokernel(standard_kum_pairing(n, d0, m))
                assert kum_cokernel(n, div, q) == cache[key]


# key tag -> the CLI words before the key's values, and the library entry points:
# the record, the rule home, the closed form and the criterion
_KEY_ENTRY_POINTS = {
    "kum": (["kummer", "--n", "--div", "--q"],
            [kum_inv, kum_div0_m, kum_cokernel, kum_is_heisenberg]),
    "class": (["kummer", "--n", "--a1", "--a2", "--x"], [kum_class_invariants]),
    "og6": (["og6", "--div", "--q"], [og6_inv, og6_cokernel, og6_is_heisenberg]),
    "rank4": (["rank4", "--e"], [rank4_inv, rank4_a, rank4_cokernel, rank4_is_heisenberg]),
}


@pytest.mark.parametrize(
    "key, message",
    [((1, 1, 2), "KUM requires n >= 2"),
     ((2, 4, 2), "divisibility 4 must divide 6"),
     ((3, 2, 2), "2*div0 = 4 must divide q = 2"),
     ((2, 0, 2), "divisibility 0 must divide 6"),
     ((2, 1, 3), "2*div0 = 2 must divide q = 3"),
     ((1, 0, 3), "KUM requires n >= 2"),
     (("class", 1, 1, 1, 0), "KUM requires n >= 2"),
     (("class", 2, 2, 3, 1), "need 1 <= a1 | a2"),
     (("class", 2, 2, 4, 0), "primitivity requires gcd(a1, x) = 1"),
     (("og6", 0, 2), "OG6 divisibility must be 1 or 2"),
     (("og6", 1, 3), "the square q is always even; odd input rejected"),
     (("og6", 2, 8), "OG6 divisibility 2 forces q = -2 or -4 mod 8"),
     (("rank4", 27), "need e > 0 with e = -6 mod 16, got 27"),
     (("rank4", -6), "need e > 0 with e = -6 mod 16, got -6")],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None,
)
def test_refused_kum_key_has_one_message_at_every_entry_point(capsys, key, message):
    # a (n, div, q) key is KUM's and any other is tagged; every library entry
    # point of the key and the CLI give its rule home's one line
    tag, *values = key if isinstance(key[0], str) else ("kum", *key)
    (command, *options), routes = _KEY_ENTRY_POINTS[tag]
    for route in routes:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(*values)
    argv = [command, *(word for pair in zip(options, map(str, values)) for word in pair)]
    assert (main(argv), *capsys.readouterr()) == (1, "", f"error: {message}\n")


# an accepted key per tag, in _KEY_ENTRY_POINTS' order
_ACCEPTED_KEYS = {"kum": (2, 1, 6), "class": (2, 1, 3, 0), "og6": (1, 2), "rank4": (10,)}


@pytest.mark.parametrize(
    "tag, position", [(tag, i) for tag, key in _ACCEPTED_KEYS.items() for i in range(len(key))])
def test_a_non_integer_key_is_refused_at_every_entry_point(tag, position):
    # a float equal to an accepted value is no integer: each rule home refuses
    # it in int_tuple's one line, so no entry point answers, stores it or
    # raises a TypeError
    values = list(_ACCEPTED_KEYS[tag])
    values[position] = float(values[position])
    message = f"expected an integer, got {values[position]!r}"
    for route in _KEY_ENTRY_POINTS[tag][1]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(*values)


def test_the_rank4_record_refuses_a_non_integer_divisibility():
    with pytest.raises(ValueError, match="^RANK4 sheaves have divisibility 2$"):
        LineBundleInvariants(Family.RANK4, 3, 10)
    with pytest.raises(ValueError, match=r"^expected an integer, got 2\.0$"):
        LineBundleInvariants(Family.RANK4, 2.0, 10)


@pytest.mark.parametrize("family", ["kum", "rank4", None])
def test_a_family_outside_family_is_refused(family):
    # only Family members name a family: not its values, and not None
    with pytest.raises(ValueError, match="^family must be a Family member: KUM, OG6 or RANK4$"):
        LineBundleInvariants(family, 2, 10)


def test_every_kum_key_the_record_accepts_gets_a_report():
    # sweep_kum_criterion's range: the record accepts exactly the sweep's 5,301
    # keys, and a report refuses none of them
    accepted = 0
    for n in range(2, 13):
        for div in divisors(2 * (n + 1)):
            for q in range(-200, 201, 2):
                try:
                    inv = kum_inv(n, div, q)
                except ValueError:
                    continue
                theta_report(inv)
                accepted += 1
    assert accepted == 5301


# ---------------------------------------------------------------------------
# KUM class route


def class_cokernel(n, a1, a2, x):
    return theta_report(kum_class_invariants(n, a1, a2, x)).cokernel


def test_class_route_golden():
    assert class_cokernel(2, 1, 3, 0).invariant_factors == (3, 3)
    assert class_cokernel(2, 1, 1, 0).is_trivial()
    assert class_cokernel(4, 5, 10, 1).invariant_factors == (5, 5, 5, 5)
    assert class_cokernel(3, 2, 4, 1).invariant_factors == (2, 2, 4, 4)


def test_class_route_matches_enumeration():
    coker = class_cokernel(4, 5, 10, 1)
    assert coker == brute_cokernel(standard_kum_pairing(4, 5, 5))


def test_class_formula_is_the_div0_m_of_the_class_key():
    # b_i = gcd(n+1, a_i) equals kum_div0_m's (div0, m) at the class's key
    # (gcd(2(n+1), a1), 2*a1*a2), with the gcds taken here, for every class with
    # n <= 40, a1 | a2 <= 200 and x in {0, 1}
    checked = 0
    for n in range(2, 41):
        for a1 in range(1, 201):
            div, b1 = math.gcd(2 * (n + 1), a1), math.gcd(n + 1, a1)
            for a2 in range(a1, 201, a1):
                b = (b1, math.gcd(n + 1, a2))
                assert kum_div0_m(n, div, 2 * a1 * a2) == b, (n, a1, a2)
                for x in (0, 1) if a1 == 1 else (1,):
                    inv = kum_class_invariants(n, a1, a2, x)
                    assert (inv.family, inv.div, inv.q, inv.n) == (Family.KUM, div, 2 * a1 * a2, n)
                    checked += 1
    assert checked == 39 * (200 + sum(200 // a1 for a1 in range(1, 201)))


def test_class_invariants():
    inv = kum_class_invariants(2, 1, 3, 0)
    assert (inv.div, inv.q, inv.n) == (1, 6, 2)
    inv = kum_class_invariants(3, 4, 8, 1)
    assert (inv.div, inv.q) == (4, 64)


def test_class_route_validation():
    with pytest.raises(ValueError):
        kum_class_invariants(2, 3, 4, 1)  # a1 does not divide a2
    with pytest.raises(ValueError):
        kum_class_invariants(2, 2, 4, 0)  # gcd(a1, x) = 2
    with pytest.raises(ValueError):
        kum_class_invariants(2, 0, 0, 1)
    with pytest.raises(ValueError):
        kum_class_invariants(1, 1, 1, 0)


# ---------------------------------------------------------------------------
# OG6 and RANK4


def test_og6_golden():
    assert og6_cokernel(1, 2).is_trivial()
    assert og6_cokernel(1, -2).is_trivial()
    assert og6_cokernel(1, 4).invariant_factors == (2, 2, 2, 2)
    assert og6_cokernel(1, -8).invariant_factors == (2, 2, 2, 2)
    assert og6_cokernel(2, -2).invariant_factors == (2,) * 8
    assert og6_cokernel(2, 4).invariant_factors == (2,) * 8
    assert og6_is_heisenberg(1, 2)
    assert not og6_is_heisenberg(1, 4)
    assert not og6_is_heisenberg(2, -2)


def test_og6_validation():
    with pytest.raises(ValueError):
        og6_cokernel(3, 2)
    with pytest.raises(ValueError):
        og6_cokernel(2, 8)  # q = 0 mod 8 impossible at divisibility 2
    with pytest.raises(ValueError):
        og6_cokernel(1, 3)
    with pytest.raises(ValueError):
        LineBundleInvariants(family=Family.OG6, div=1, q=2, n=3)


def test_rank4_golden():
    assert rank4_a(10) == 1
    assert rank4_a(42) == 3
    assert rank4_a(26) == 2
    assert rank4_cokernel(10).is_trivial()
    assert rank4_cokernel(42).invariant_factors == (3, 3)
    assert rank4_cokernel(26).is_trivial()
    assert rank4_is_heisenberg(10)
    assert not rank4_is_heisenberg(42)


def test_rank4_validation():
    for bad in (12, -6, 16, 0, 11):
        with pytest.raises(ValueError):
            rank4_a(bad)


# ---------------------------------------------------------------------------
# section counts


def test_riemann_roch_golden():
    assert riemann_roch(kum_inv(2, 1, 2)) == 9
    assert riemann_roch(kum_inv(3, 1, 4)) == 40
    assert riemann_roch(kum_inv(2, 1, 6)) == 30
    assert riemann_roch(og6_inv(1, 2)) == 16
    assert riemann_roch(og6_inv(1, 4)) == 40
    assert riemann_roch(rank4_inv(10)) == 9
    assert riemann_roch(rank4_inv(42)) == 30


# (the class for parameter e, its count by math.comb, an e whose count is too big)
SECTION_FAMILIES = {
    "kum-n2": (lambda e: kum_inv(2, 1, 2 * e), lambda e: 3 * math.comb(e + 2, 2),
               2 ** (MAX_H0_BITS // 2 + 2)),
    "kum-n-equals-e": (lambda e: kum_inv(e, 1, 2 * e), lambda e: (e + 1) * math.comb(2 * e, e),
                       MAX_H0_BITS),
    "og6": (lambda e: og6_inv(1, 2 * e), lambda e: 4 * math.comb(e + 3, 3),
            2 ** (MAX_H0_BITS // 3 + 3)),
    "rank4": (lambda a: rank4_inv(16 * a - 6), lambda a: 3 * math.comb(a + 2, 2),
              2 ** (MAX_H0_BITS // 2 + 2)),
}


@pytest.mark.parametrize("family", SECTION_FAMILIES)
def test_section_count_limit_is_exact(family):
    inv, count, hi = SECTION_FAMILIES[family]
    lo = 2
    assert count(lo).bit_length() <= MAX_H0_BITS < count(hi).bit_length()
    while hi - lo > 1:  # bisect for the last parameter whose count fits
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count(mid).bit_length() <= MAX_H0_BITS else (lo, mid)
    assert riemann_roch(inv(lo)) == count(lo)
    for e in (hi, hi + 1, 2 * hi):
        with pytest.raises(ValueError, match=f"MAX_H0_BITS = {MAX_H0_BITS} bits"):
            riemann_roch(inv(e))


def test_riemann_roch_needs_positive_square():
    with pytest.raises(ValueError):
        riemann_roch(kum_inv(2, 1, -6))
    with pytest.raises(ValueError):
        riemann_roch(kum_inv(2, 1, 0))


# ---------------------------------------------------------------------------
# invariant validation


def test_invariants_validation():
    with pytest.raises(ValueError):
        kum_inv(2, 1, 3)  # odd q
    with pytest.raises(ValueError):
        LineBundleInvariants(family=Family.KUM, div=1, q=2)  # missing n
    with pytest.raises(ValueError):
        kum_inv(2, 4, 2)  # 4 does not divide 6
    with pytest.raises(ValueError):
        LineBundleInvariants(family=Family.RANK4, div=2, q=10, n=2)
    with pytest.raises(ValueError):
        rank4_inv(12)
    with pytest.raises(ValueError):
        LineBundleInvariants(family=Family.RANK4, div=1, q=10)
    with pytest.raises(ValueError):
        og6_inv(0, 2)


# ---------------------------------------------------------------------------
# aggregate reports


def test_theta_report_heisenberg_kum():
    rep = theta_report(kum_inv(2, 1, 2))
    assert rep.is_heisenberg
    assert rep.cokernel.is_trivial()
    assert (rep.div0, rep.m) == (1, 1)
    assert rep.h0 == 9
    assert rep.schrodinger_multiplicity == 1


def test_kum_report_evaluates_div0_and_m_once_each(monkeypatch):
    # the report reads div0, m and the cokernel from the record, which evaluated them
    # once; only the criterion, checked against the cokernel, runs the key's rules
    calls = 0

    def counted(*args, original=invariants.kum_div0_m):
        nonlocal calls
        calls += 1
        return original(*args)

    inv = kum_inv(2, 3, 6)
    monkeypatch.setattr(invariants, "kum_div0_m", counted)
    rep = theta_report(inv)
    assert calls <= 1
    assert (rep.div0, rep.m, rep.cokernel.invariant_factors, rep.is_heisenberg) == (
        3, 1, (3, 3), False)


@pytest.mark.parametrize("inv", [og6_inv(1, 2), og6_inv(1, 4), og6_inv(2, -2), rank4_inv(10),
                                 rank4_inv(42)], ids=lambda inv: f"{inv.family.value}-{inv.q}")
def test_og6_and_rank4_reports_build_no_record(monkeypatch, inv):
    # the verdict is the cokernel's triviality: the report builds no record to
    # validate its key, and reads the cokernel the record's og6_cokernel returned
    built, calls = [], []

    def counted(*args, original=invariants.og6_cokernel):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(LineBundleInvariants, "__init__", lambda self, *args: built.append(args))
    monkeypatch.setattr(invariants, "og6_cokernel", counted)
    rep = theta_report(inv)
    assert built == []
    assert calls == []
    assert rep.is_heisenberg == rep.cokernel.is_trivial()


def test_a_class_record_is_its_key_record_with_the_same_cokernel():
    # kum_class_invariants builds its record through the constructor: it equals the
    # (div, q) record of its key, keeps b_i = gcd(n+1, a_i) as (div0, m), and holds the
    # very cokernel object the key's record holds
    checked = 0
    for n in range(2, 10):
        for a1 in range(1, 13):
            for a2 in range(a1, 6 * a1 + 1, a1):
                for x in (x for x in range(5) if math.gcd(a1, x) == 1):
                    inv = kum_class_invariants(n, a1, a2, x)
                    key = LineBundleInvariants(Family.KUM, inv.div, inv.q, n)
                    assert inv == key and inv.cokernel is key.cokernel
                    assert (inv.div0, inv.m) == (key.div0, key.m) == (
                        math.gcd(n + 1, a1), math.gcd(n + 1, a2))
                    assert (inv.sections, inv.rep_dim) == (key.sections, key.rep_dim)
                    checked += 1
    assert checked > 1000


def test_closed_form_cokernels_are_the_cached_structures():
    # the closed forms hand their orders to finabgrp's cached chain core without
    # from_cyclic_orders' validation: each returns the very object from_cyclic_orders
    # returns for the same orders, and so does theta_report
    structure = AbGroupStructure.from_cyclic_orders
    for n in range(2, 12):
        for div in divisors(2 * (n + 1)):
            step = 2 * kum_div0_m(n, div, 0)[0]
            for q in range(-6 * step, 7 * step, step):
                d0, m = kum_div0_m(n, div, q)
                want = structure((d0, d0, m, m))
                assert kum_cokernel(n, div, q) is want
                assert theta_report(kum_inv(n, div, q)).cokernel is want
    for div, q in [(1, q) for q in range(-40, 41, 2)] + [(2, q) for q in range(-44, 45, 2)
                                                         if q % 8 in (4, 6)]:
        want = structure((2,) * (8 if div == 2 else 0 if q % 4 else 4))
        assert og6_cokernel(div, q) is want
        assert theta_report(og6_inv(div, q)).cokernel is want
    for e in range(10, 16 * 40, 16):
        want = structure((3, 3) if e % 3 == 0 else ())
        assert rank4_cokernel(e) is want
        assert theta_report(rank4_inv(e)).cokernel is want


def test_og6_and_rank4_verdicts_are_the_cokernels_triviality(monkeypatch):
    # the verdicts hold no predicate of their own: a planted cokernel decides them
    assert og6_is_heisenberg(1, 2) and rank4_is_heisenberg(10)
    monkeypatch.setattr(invariants, "og6_cokernel", lambda div, q: AbGroupStructure((2, 2)))
    monkeypatch.setattr(invariants, "rank4_cokernel", lambda e: AbGroupStructure((3, 3)))
    assert not og6_is_heisenberg(1, 2) and not rank4_is_heisenberg(10)


def test_theta_report_non_heisenberg_kum():
    rep = theta_report(kum_inv(2, 1, 6))
    assert not rep.is_heisenberg
    assert rep.cokernel.invariant_factors == (3, 3)
    assert rep.h0 == 30
    assert rep.schrodinger_multiplicity is None


def test_theta_report_og6():
    rep = theta_report(og6_inv(1, 2))
    assert rep.is_heisenberg and rep.h0 == 16 and rep.schrodinger_multiplicity == 1
    assert rep.div0 is None and rep.m is None
    rep = theta_report(og6_inv(2, -2))
    assert not rep.is_heisenberg
    assert rep.h0 is None and rep.schrodinger_multiplicity is None


def test_theta_report_rank4():
    rep = theta_report(rank4_inv(10))
    assert rep.is_heisenberg and rep.h0 == 9 and rep.schrodinger_multiplicity == 1
    rep = theta_report(rank4_inv(42))
    assert not rep.is_heisenberg and rep.h0 == 30


def test_report_dict_shapes():
    d = report_to_dict(theta_report(kum_inv(2, 1, 6)))
    assert list(d) == ["family", "n", "div", "q", "div0", "m", "cokernel", "is_heisenberg", "h0"]
    assert d["family"] == "kum" and d["cokernel"] == [3, 3] and d["is_heisenberg"] is False

    d = report_to_dict(theta_report(kum_inv(2, 1, 2)))
    assert d["multiplicity"] == 1 and d["h0"] == 9

    d = report_to_dict(theta_report(og6_inv(2, -2)))
    assert list(d) == ["family", "div", "q", "cokernel", "is_heisenberg"]
    assert d["cokernel"] == [2] * 8

    d = report_to_dict(theta_report(rank4_inv(10)))
    assert "n" not in d and d["multiplicity"] == 1
