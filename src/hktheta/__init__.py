"""Exact-arithmetic theta-group invariants for hyperkahler line bundles.

Layers: `lattices` (Gram lattices, divisibility, orbit data), `finabgrp`
(finite abelian groups and skew Q/Z-valued pairings with dual cokernel
routes), `heisenberg` (finite Heisenberg groups and exact Schrodinger
matrices), `invariants` (the closed-form cokernel formulas, Heisenberg
criteria, and section counts), `sweeps` (deterministic property suites),
and `cli` (the `hktheta` command).  The package exports `__version__` and
every name in the `__all__` of `finabgrp`, `heisenberg`, `invariants` and
`lattices`; `sweeps` and `cli` are imported as submodules.
"""

from . import finabgrp, heisenberg, invariants, lattices
from .finabgrp import *  # noqa: F403
from .heisenberg import *  # noqa: F403
from .invariants import *  # noqa: F403
from .lattices import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *finabgrp.__all__, *heisenberg.__all__, *invariants.__all__,
           *lattices.__all__]
