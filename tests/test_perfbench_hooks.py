"""The names perfbench binds into the package still exist.

perfbench's tracer counts instance creation by replacing `__post_init__` on the
classes in its COUNTED_CLASSES, and its sweep-battery workload rebinds
`sweeps._tally` and every sweep named in EXPECTED_SWEEP_CHECKS.  A change that
dropped one of these names would crash a traced or a sweep-battery run while
every other test passes.  The tables are read from perfbench's source, which
these tests neither import nor edit.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hktheta import sweeps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _table(filename: str, name: str):
    """The literal value assigned to `name` at the top of perfbench/<filename>."""
    for node in ast.parse((PERFBENCH / filename).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} assigns no {name}")


@pytest.mark.parametrize("module, cls_name", _table("tracer.py", "COUNTED_CLASSES"))
def test_counted_classes_keep_their_post_init(module, cls_name):
    cls = getattr(importlib.import_module(f"hktheta.{module}"), cls_name)
    assert callable(getattr(cls, "__post_init__", None)), f"{module}.{cls_name}.__post_init__"


def test_sweep_battery_finds_the_tally_and_every_sweep():
    names = ["_tally", *_table("workloads.py", "EXPECTED_SWEEP_CHECKS")]
    assert len(names) > 1
    assert [name for name in names if not callable(getattr(sweeps, name, None))] == []
