"""The sweeps of the battery that no acceptance criterion runs, and the battery's shape."""

import inspect
import random
import zlib
from collections import Counter
from itertools import chain

import pytest

from hktheta import lattices, sweeps
from hktheta.finabgrp import AbGroupStructure, Pairing, tensor_pairing
from hktheta.invariants import kum_cokernel
from hktheta.lattices import OG6Class, og6_class
from hktheta.sweeps import (
    SWEEPS,
    _byte_table,
    _draw,
    run_all,
    sweep_kum_three_way,
    sweep_og6_model,
    sweep_og6_trichotomy,
    sweep_rank4_consistency,
    sweep_tensor_additivity,
)
from hk_helpers import tensor_additivity_by_parts


@pytest.mark.parametrize(
    "sweep, checks",
    [
        (sweep_kum_three_way, 1584),
        (sweep_og6_model, 3),
        (sweep_rank4_consistency, 50),
        (sweep_tensor_additivity, 353),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_sweep_passes_every_check(sweep, checks):
    result = sweep()
    assert result.failed == 0
    assert result.passed == checks
    assert result.seconds >= 0


def test_sweeps_take_no_parameters():
    # every sweep runs one fixed range, so the battery checks one sample
    assert [s.__name__ for s in SWEEPS if inspect.signature(s).parameters] == []


def test_tensor_additivity_catches_a_wrong_tensor(monkeypatch):
    # a tensor that drops its second factor must fail the integer comparison
    monkeypatch.setattr("hktheta.sweeps.tensor_pairing", lambda p1, p2: p1)
    result = sweep_tensor_additivity()
    assert result.failed > 0
    assert result.passed + result.failed == 353


@pytest.mark.parametrize("upper", [True, False], ids=["upper-entry-off-by-one", "lower-only"])
def test_tensor_additivity_catches_a_tensor_wrong_at_one_entry(monkeypatch, upper):
    # the one-pass check must read every entry of the tensor: a skew sum off by
    # one unit at the upper entry (0, 1), or a sum wrong at (3, 2) alone, below
    # the diagonal, which is not skew
    def wrong(p1, p2):
        t = tensor_pairing(p1, p2)
        units, n = [list(row) for row in t._units], t.group.exponent
        if upper:
            units[0][1], units[1][0] = (units[0][1] + 1) % n, (units[1][0] - 1) % n
            return Pairing._of(t.group, units)
        units[3][2] = (units[3][2] + 1) % n
        return Pairing._make(t.group, tuple(map(tuple, units)), tuple(
            (i, j, u) for i, row in enumerate(units) for j, u in enumerate(row) if u))

    monkeypatch.setattr("hktheta.sweeps.tensor_pairing", wrong)
    result = sweep_tensor_additivity()
    assert result.failed > 0
    assert result.passed + result.failed == 353


def test_tensor_additivity_makes_one_kernel_call_per_check(monkeypatch):
    # each check sums the tensor's and both factors' signed entries in one pass:
    # one _pairing_units call per check over its 16 + 40 pairs, 353 calls per sweep
    calls = []
    kernel = sweeps._pairing_units

    def counted(entries, pairs):
        pairs = list(pairs)
        calls.append(len(pairs))
        return kernel(entries, pairs)

    monkeypatch.setattr(sweeps, "_pairing_units", counted)
    result = sweep_tensor_additivity()
    assert (result.passed, result.failed) == (353, 0)
    assert calls == [56] * 353


def _record_tensor_checks(monkeypatch):
    # per check, (t, p1, p2) from tensor_pairing and (entries, pairs, sums) from the
    # one kernel call, each read through the sweep's own names
    tensors, calls = [], []
    tensor, kernel = sweeps.tensor_pairing, sweeps._pairing_units

    def recorded_tensor(p1, p2):
        t = tensor(p1, p2)
        tensors.append((t, p1, p2))
        return t

    def recorded_kernel(entries, pairs):
        pairs = list(pairs)
        sums = list(kernel(entries, pairs))
        calls.append((entries, pairs, sums))
        return iter(sums)

    monkeypatch.setattr(sweeps, "tensor_pairing", recorded_tensor)
    monkeypatch.setattr(sweeps, "_pairing_units", recorded_kernel)
    result = sweep_tensor_additivity()
    assert (result.passed, result.failed) == (353, 0)
    assert len(tensors) == len(calls) == 353
    return tensors, calls


def test_merged_form_gives_the_integers_of_three_separate_evaluations(monkeypatch):
    # at each of the 56 pairs of all 353 checks, the one call over the merged form gives
    # the integer that three calls, over t, -p1 and -p2, sum to (hk_helpers' reference)
    tensors, calls = _record_tensor_checks(monkeypatch)
    for (t, p1, p2), (_, pairs, sums) in zip(tensors, calls):
        assert len(pairs) == 56
        assert sums == tensor_additivity_by_parts(t, p1, p2, pairs)


def test_each_kernel_call_gets_one_entry_per_position_and_no_zero(monkeypatch):
    # the gain pinned without timing: at most one entry per (i, j), none zero, so at most
    # 4 on the model pairings, and 418 entries over the sweep (3,228 before the merge)
    _, calls = _record_tensor_checks(monkeypatch)
    forms = [entries for entries, _, _ in calls]
    assert all(len({(i, j) for i, j, _ in f}) == len(f) <= 4 for f in forms)
    assert all(u for f in forms for _, _, u in f)
    assert sum(map(len, forms)) == 418


def test_tensor_additivity_draws_the_pinned_sample(monkeypatch):
    # crc32 of the bytes _draw returns over the sweep, taken before the entries were
    # merged: the 353 checks see the same 353 x 320 coordinates
    draws = []
    draw = sweeps._draw

    def recorded(rng, lo, hi, k):
        values = draw(rng, lo, hi, k)
        draws.append(values.tobytes())
        return values

    monkeypatch.setattr(sweeps, "_draw", recorded)
    assert sweep_tensor_additivity().failed == 0
    assert len(draws) == 353
    assert zlib.crc32(b"".join(draws)) == 0x1FC5763A


def test_tensor_additivity_catches_a_merge_that_keeps_the_last_entry(monkeypatch):
    # a merge that overwrites, keeping at each position only the last form's entry
    # (-p2's where it has one), must fail the integer comparison
    monkeypatch.setattr(sweeps, "_merged", lambda *forms: list(
        {(i, j): (i, j, u) for i, j, u in chain(*forms)}.values()))
    result = sweep_tensor_additivity()
    assert result.failed > 0
    assert result.passed + result.failed == 353


def test_kum_three_way_counts_every_disagreement_of_the_div_q_route(monkeypatch):
    # a (div, q) route wrong at n = 6 only, whichever module calls it: each of
    # that n's 176 checks is a counted failure, and every other n still runs
    def wrong(n, div, q):
        return AbGroupStructure((7,)) if n == 6 else kum_cokernel(n, div, q)

    monkeypatch.setattr("hktheta.invariants.kum_cokernel", wrong)
    monkeypatch.setattr("hktheta.sweeps.kum_cokernel", wrong)
    result = sweep_kum_three_way()
    assert (result.passed, result.failed, result.witnesses) == (1584 - 176, 176, ())


@pytest.mark.parametrize(
    "wrong",
    [
        {OG6Class.II: OG6Class.III, OG6Class.III: OG6Class.II},
        {OG6Class.I: OG6Class.II},
    ],
    ids=["swap-II-III", "I-to-II"],
)
def test_og6_trichotomy_catches_a_wrong_class(monkeypatch, wrong):
    # the seeded sample (I/II/III = 9,856/101/43) holds vectors of every class,
    # so a classifier that confuses any two of them fails some checks
    monkeypatch.setattr("hktheta.sweeps.og6_class", lambda v: wrong.get(og6_class(v), og6_class(v)))
    result = sweep_og6_trichotomy()
    assert result.failed > 0
    assert result.passed + result.failed == 10_000


def test_og6_trichotomy_sample_is_fixed(monkeypatch):
    # the seeded sample's class counts; a change to how vectors are drawn shows here
    seen = Counter()

    def counting(v):
        cls = og6_class(v)
        seen[cls] += 1
        return cls

    monkeypatch.setattr("hktheta.sweeps.og6_class", counting)
    assert sweep_og6_trichotomy().passed == 10_000
    assert seen == {OG6Class.I: 9_856, OG6Class.II: 101, OG6Class.III: 43}


def test_og6_trichotomy_does_not_share_the_gram_product(monkeypatch):
    # gram.v with basis vectors e1 and g2 swapped: a wrong Gram matrix on which
    # every primitive vector still gets a valid (div, q), so og6_class raises
    # nothing and only an independent predictor can tell the classes are wrong
    gram_times = lattices._gram_times

    def swapped(lat, v):
        w = (v[7],) + tuple(v[1:7]) + (v[0],)
        gw = gram_times(lat, w)
        return [gw[7]] + gw[1:7] + [gw[0]]

    monkeypatch.setattr(lattices, "_gram_times", swapped)
    result = sweep_og6_trichotomy()
    assert result.failed > 0
    assert result.passed + result.failed == 10_000


def test_an_exception_inside_a_sweep_fails_it_and_the_battery_goes_on(monkeypatch):
    # a Gram product that drops the last Gram entry makes og6_class's own
    # cross-check raise on some vectors; that sweep counts it as a failure with
    # a witness, and every sweep after it still runs and reports
    def dropped(lat, v):
        gv = [0] * len(v)
        for i, j, x in lat._entries[:-1]:
            gv[i] += x * v[j]
        return gv

    monkeypatch.setattr(lattices, "_gram_times", dropped)
    results = run_all()
    assert len(results) == len(SWEEPS) == 9
    [trichotomy] = [r for r in results if r.name == "og6 trichotomy"]
    assert trichotomy.failed >= 1
    assert len(trichotomy.witnesses) == 1
    assert trichotomy.witnesses[0].startswith("AssertionError: ")


# ---------------------------------------------------------------------------
# seeded draws from random bytes


@pytest.mark.parametrize("lo, hi, k", [(0, 2, 320), (0, 5, 1), (-10, 10, 8_000), (-128, 127, 300)])
def test_draw_has_length_k_and_stays_in_range(lo, hi, k):
    values = _draw(random.Random(lo * k), lo, hi, k)
    assert len(values) == k
    assert all(lo <= x <= hi for x in values)
    if k >= 16 * (hi - lo + 1):  # then every value shows up
        assert set(values) == set(range(lo, hi + 1))


@pytest.mark.parametrize("lo, hi", [(0, 2), (0, 3), (0, 5), (-10, 10)])
def test_every_value_has_the_same_number_of_kept_bytes(lo, hi):
    # spans 3, 4, 6 and 21: a kept byte b maps to the signed byte table[b]
    table, rejected = _byte_table(lo, hi)
    preimages = Counter(
        (table[b] ^ 0x80) - 0x80 for b in range(256) if b not in rejected
    )
    span = hi - lo + 1
    assert sorted(preimages) == list(range(lo, hi + 1))
    assert set(preimages.values()) == {256 // span}
    assert len(rejected) == 256 % span


def test_one_seed_gives_one_draw():
    assert _draw(random.Random(5), -10, 10, 64) == _draw(random.Random(5), -10, 10, 64)
    assert _draw(random.Random(5), -10, 10, 64) != _draw(random.Random(6), -10, 10, 64)


def test_draw_refills_after_a_block_of_rejected_bytes():
    class Stub:
        # the first block is all 255, which span 3 rejects (255 = 3 * 85)
        def __init__(self):
            self.sizes = []

        def randbytes(self, n):
            self.sizes.append(n)
            return bytes([255] * n) if len(self.sizes) == 1 else bytes(range(n))

    stub = Stub()
    assert _draw(stub, 0, 2, 10).tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert len(stub.sizes) == 2


@pytest.mark.parametrize("sweep", [sweep_og6_trichotomy, sweep_tensor_additivity])
def test_seeded_sweeps_make_no_random_calls(monkeypatch, sweep):
    # the coordinates come from random bytes in C, not one random() per value
    calls = Counter()

    class Counting(random.Random):
        def random(self):
            calls["random"] += 1
            return super().random()

    monkeypatch.setattr(sweeps.random, "Random", Counting)
    assert sweep().failed == 0
    assert calls["random"] == 0
