"""The one sweep protocol: each sweep is a generator of checks tallied by `_sweep`."""

import inspect

from hktheta import sweeps
from hktheta.sweeps import SWEEPS, sweep_og6_model, sweep_tensor_additivity


def test_every_sweep_is_a_generator_of_checks_tallied_under_its_name(monkeypatch):
    # _sweep keeps each generator as __wrapped__ and reads _tally when the sweep
    # runs, so a rebound _tally (as a benchmark's timer) sees every sweep's checks
    assert all(inspect.isgeneratorfunction(s.__wrapped__) for s in SWEEPS)
    seen = []
    monkeypatch.setattr(sweeps, "_tally", lambda name, checks: seen.append((name, [*checks])))
    sweep_og6_model()
    assert seen == [("og6 model agreement", [True, True, True])]


def test_an_exception_in_a_sweeps_setup_is_a_counted_failure(monkeypatch):
    # the generator pairs are built before the first check; that is tallied too
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(sweeps, "product", broken)
    result = sweep_tensor_additivity()
    assert (result.passed, result.failed, result.witnesses) == (0, 1, ("RuntimeError: planted",))
