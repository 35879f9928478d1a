"""The value types are arith.Record subclasses: semantics shared by all twelve."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hktheta
from hktheta.arith import Record
from hktheta.finabgrp import (
    AbGroupStructure,
    FinAbGroup,
    GroupElement,
    Pairing,
    QmodZ,
    standard_kum_pairing,
)
from hktheta.heisenberg import GenPermMatrix, HeisElem, heis_elem, schrodinger_matrix
from hktheta.invariants import Family, LineBundleInvariants, ThetaReport, theta_report
from hktheta.lattices import GramLattice, OrbitInvariant, kum_orbit_split, lambda_kum
from hktheta.sweeps import SweepResult


def _samples():
    """One instance of each record class, each built twice by the same calls."""
    elem = heis_elem((2, 3), QmodZ(1, 6), (1, 2), (0, 1))
    return {
        QmodZ: QmodZ(1, 2),
        FinAbGroup: FinAbGroup((2, 3)),
        GroupElement: FinAbGroup((2, 3)).element((1, 2)),
        AbGroupStructure: AbGroupStructure((2, 6)),
        Pairing: standard_kum_pairing(2, 1, 3),
        GramLattice: lambda_kum(2),
        OrbitInvariant: kum_orbit_split(2, (0, 0, 0, 0, 0, 0, 1)),
        LineBundleInvariants: LineBundleInvariants(Family.KUM, 3, 12, 2),
        ThetaReport: theta_report(LineBundleInvariants(Family.OG6, 1, 2)),
        HeisElem: elem,
        GenPermMatrix: schrodinger_matrix(elem),
        SweepResult: SweepResult("alpha", 4, 1, 0.25, ("AssertionError: planted",)),
    }


SAMPLES = _samples()
CLASSES = list(SAMPLES)


def test_every_value_type_is_a_record():
    assert len(CLASSES) == 12
    assert all(issubclass(cls, Record) and type(SAMPLES[cls]) is cls for cls in CLASSES)
    assert all(not hasattr(SAMPLES[cls], "__dict__") for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = SAMPLES[cls], _samples()[cls]
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a == a and hash(a) == hash(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_equal_only_records_of_their_class(cls):
    rec = SAMPLES[cls]
    values = tuple(rec._asdict().values())
    assert rec != values and not rec == values
    assert rec != rec._asdict()
    assert rec != object() and rec.__eq__(None) is NotImplemented


def test_different_classes_with_equal_fields_are_unequal():
    assert FinAbGroup((2, 2)) != AbGroupStructure((2, 2))
    assert not FinAbGroup((2, 2)) == AbGroupStructure((2, 2))
    assert QmodZ(1, 2) != (1, 2) and (1, 2) != QmodZ(1, 2)
    assert not QmodZ(1, 2) == (1, 2)
    assert len({FinAbGroup((2, 2)), AbGroupStructure((2, 2))}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    rec = SAMPLES[cls]
    before = repr(rec)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == before and rec == _samples()[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle_give_equal_records(cls):
    rec = SAMPLES[cls]
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec and hash(twin) == hash(rec)
        assert all(getattr(twin, name) == getattr(rec, name) for name in cls.__slots__)


def test_entries_take_no_part_in_equality_hash_or_repr():
    for rec in (SAMPLES[Pairing], SAMPLES[GramLattice]):
        cls = type(rec)
        assert "_entries" in cls.__slots__ and "_entries" not in cls._fields
        assert "_entries" not in repr(rec) and "_entries" not in rec._asdict()
        forged = copy.copy(rec)
        object.__setattr__(forged, "_entries", ())
        assert forged == rec and hash(forged) == hash(rec) and repr(forged) == repr(rec)


def test_group_exponent_is_stored_once_and_never_compared():
    g = FinAbGroup((4, 6))
    assert g.exponent == 12 and FinAbGroup._fields == ("orders",)
    assert repr(g) == "FinAbGroup(orders=(4, 6))" and g._asdict() == {"orders": (4, 6)}
    assert hash(g) == hash((4, 6))
    twin = pickle.loads(pickle.dumps(g))
    assert twin == g and hash(twin) == hash(g) and twin.exponent == 12
    with pytest.raises(AttributeError):
        g.exponent = 24
    forged = copy.copy(g)
    object.__setattr__(forged, "exponent", 5)
    assert forged == g and hash(forged) == hash(g) and repr(forged) == repr(g)


@pytest.mark.parametrize("inv", [LineBundleInvariants(Family.KUM, 3, 12, 2),
                                 LineBundleInvariants(Family.OG6, 2, -2),
                                 LineBundleInvariants(Family.RANK4, 2, 42)],
                         ids=lambda inv: inv.family.value)
def test_theta_record_keeps_its_rule_home_answers_uncompared(inv):
    # what the family's rule home returned rides along in slots that equality, hash,
    # repr and _asdict skip, and that copies and pickles carry over
    fields, kept = ("family", "div", "q", "n"), ("div0", "m", "cokernel", "sections", "rep_dim")
    assert LineBundleInvariants._fields == fields
    assert LineBundleInvariants.__slots__ == fields + kept
    assert repr(inv) == (f"LineBundleInvariants(family={inv.family!r}, div={inv.div!r}, "
                         f"q={inv.q!r}, n={inv.n!r})")
    assert inv._asdict() == {name: getattr(inv, name) for name in fields}
    assert hash(inv) == hash(tuple(getattr(inv, name) for name in fields))
    for twin in (copy.copy(inv), copy.deepcopy(inv), pickle.loads(pickle.dumps(inv))):
        assert twin == inv and all(getattr(twin, name) == getattr(inv, name) for name in kept)
    forged = copy.copy(inv)
    for name in kept:
        object.__setattr__(forged, name, None)
    assert forged == inv and hash(forged) == hash(inv) and repr(forged) == repr(inv)
    assert forged._asdict() == inv._asdict()


def test_repr_keeps_the_dataclass_text():
    assert repr(QmodZ(1, 2)) == "QmodZ(num=1, den=2)"
    assert repr(FinAbGroup((2, 3))) == "FinAbGroup(orders=(2, 3))"
    assert repr(FinAbGroup((2,)).element((1,))) == (
        "GroupElement(group=FinAbGroup(orders=(2,)), coords=(1,))")
    assert repr(AbGroupStructure()) == "AbGroupStructure(invariant_factors=())"
    assert repr(Pairing(FinAbGroup((2, 2)), ((QmodZ(0), QmodZ(1, 2)), (QmodZ(1, 2), QmodZ(0))))) == (
        "Pairing(group=FinAbGroup(orders=(2, 2)), _units=((0, 1), (1, 0)))")
    assert repr(GramLattice("U^1", ((0, 1), (1, 0)), ("e1", "f1"))) == (
        "GramLattice(name='U^1', gram=((0, 1), (1, 0)), basis=('e1', 'f1'))")
    assert repr(LineBundleInvariants(Family.OG6, 1, 2)) == (
        "LineBundleInvariants(family=<Family.OG6: 'og6'>, div=1, q=2, n=None)")
    assert repr(SweepResult("a", 1, 0, 0.5)) == (
        "SweepResult(name='a', passed=1, failed=0, seconds=0.5, witnesses=())")
    assert repr(GenPermMatrix(2, (1, 0), (0, 1), 2)) == (
        "GenPermMatrix(dim=2, perm=(1, 0), phases=(0, 1), modulus=2)")


def test_keyword_construction_and_defaults():
    assert QmodZ(num=3) == QmodZ(3, 1) == QmodZ(0)
    assert AbGroupStructure() == AbGroupStructure(invariant_factors=())
    assert SweepResult(name="a", passed=1, failed=0, seconds=0.5).witnesses == ()
    assert LineBundleInvariants(family=Family.OG6, div=1, q=2).n is None


@given(st.integers(-12, 12), st.integers(1, 12), st.integers(-12, 12), st.integers(1, 12))
def test_qmodz_hash_agrees_with_equality(a, b, c, d):
    x, y = QmodZ(a, b), QmodZ(c, d)
    assert (x == y) == ((a * d - b * c) % (b * d) == 0)
    if x == y:
        assert hash(x) == hash(y)


@given(st.lists(st.integers(2, 6), min_size=1, max_size=3), st.data())
def test_group_records_hash_agrees_with_equality(orders, data):
    coords = st.lists(st.integers(-8, 8), min_size=len(orders), max_size=len(orders))
    g, h = FinAbGroup(tuple(orders)), FinAbGroup(list(orders))
    assert g == h and hash(g) == hash(h)
    a, b = g.element(data.draw(coords)), h.element(data.draw(coords))
    assert (a == b) == (a.coords == b.coords)
    if a == b:
        assert hash(a) == hash(b)
    s = AbGroupStructure.from_cyclic_orders(orders)
    for t in (AbGroupStructure(s.invariant_factors), AbGroupStructure.from_cyclic_orders(orders[1:])):
        assert (s == t) == (s.invariant_factors == t.invariant_factors)
        if s == t:
            assert hash(s) == hash(t)


# ---------------------------------------------------------------------------
# construction hook: QmodZ and GroupElement run __post_init__ once per object


def _count_post_inits(monkeypatch, cls):
    calls = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda obj: calls.append(obj) or original(obj))
    return calls


@pytest.mark.parametrize("build", [
    lambda: QmodZ(3, 6),
    lambda: QmodZ(num=2),
    lambda: QmodZ.parse("5/10"),
    lambda: QmodZ.parse("7"),
], ids=["call", "keyword", "parse", "parse-integer"])
def test_every_qmodz_construction_runs_post_init_once(monkeypatch, build):
    calls = _count_post_inits(monkeypatch, QmodZ)
    q = build()
    assert len(calls) == 1 and calls[0] is q


def test_qmodz_negation_runs_post_init_once(monkeypatch):
    q = QmodZ(1, 3)
    calls = _count_post_inits(monkeypatch, QmodZ)
    neg = -q
    assert len(calls) == 1 and calls[0] is neg and (neg.num, neg.den) == (2, 3)


@pytest.mark.parametrize("build", [
    lambda g: GroupElement(g, (1, 5)),
    lambda g: GroupElement(group=g, coords=[1, 5]),
    lambda g: g.element((4, -1)),
    lambda g: g.zero(),
    lambda g: g.gen(1),
], ids=["call", "keyword", "element", "zero", "gen"])
def test_every_group_element_construction_runs_post_init_once(monkeypatch, build):
    g = FinAbGroup((3, 4))
    calls = _count_post_inits(monkeypatch, GroupElement)
    e = build(g)
    assert len(calls) == 1 and calls[0] is e and e.group is g


def test_post_init_normalises_what_init_stored():
    q = QmodZ(-2, -4)
    assert (q.num, q.den) == (1, 2)
    e = FinAbGroup((3, 4)).element([4, -1])
    assert e.coords == (1, 3) and type(e.coords) is tuple


# ---------------------------------------------------------------------------
# import cost: the package loads without dataclasses and what it pulls in


def test_package_imports_no_dataclasses():
    src = Path(hktheta.__file__).resolve().parents[1]
    code = ("import hktheta.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-E", "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
