"""The sweeps of the battery that no acceptance criterion runs, and the battery's shape."""

import inspect

import pytest

from hktheta.sweeps import (
    SWEEPS,
    sweep_kum_three_way,
    sweep_og6_model,
    sweep_rank4_consistency,
    sweep_tensor_additivity,
)


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
