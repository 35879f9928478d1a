"""Exact-arithmetic theta-group invariants for hyperkahler line bundles.

Layers: `lattices` (Gram lattices, divisibility, orbit data), `finabgrp`
(finite abelian groups and skew Q/Z-valued pairings with dual cokernel
routes), `heisenberg` (finite Heisenberg groups and exact Schrodinger
matrices), `invariants` (the closed-form cokernel formulas, Heisenberg
criteria, and section counts), `sweeps` (deterministic property suites),
and `cli` (the `hktheta` command).
"""

from .finabgrp import (
    AbGroupStructure,
    FinAbGroup,
    GroupElement,
    OG6PairingCase,
    Pairing,
    QmodZ,
    brute_cokernel,
    eval_pairing,
    is_nondegenerate,
    pairing_cokernel,
    pairing_radical,
    standard_kum_pairing,
    standard_og6_pairing,
    tensor_pairing,
)
from .heisenberg import (
    GenPermMatrix,
    HeisElem,
    character_norm,
    h_commutator,
    h_mul,
    heis_pairing,
    schrodinger_matrix,
    schrodinger_multiplicity,
)
from .invariants import (
    Family,
    LineBundleInvariants,
    ThetaReport,
    kum_cokernel,
    kum_cokernel_from_class,
    og6_cokernel,
    rank4_cokernel,
    riemann_roch,
    theta_report,
)
from .lattices import (
    GramLattice,
    OG6Class,
    OrbitInvariant,
    bbf_pair,
    bbf_square,
    divisibility,
    is_primitive,
    kum_orbit_split,
    lambda_kum,
    lambda_og6,
    og6_class,
)

__version__ = "0.1.0"

__all__ = [
    "AbGroupStructure",
    "FinAbGroup",
    "GroupElement",
    "OG6PairingCase",
    "Pairing",
    "QmodZ",
    "brute_cokernel",
    "eval_pairing",
    "is_nondegenerate",
    "pairing_cokernel",
    "pairing_radical",
    "standard_kum_pairing",
    "standard_og6_pairing",
    "tensor_pairing",
    "GenPermMatrix",
    "HeisElem",
    "character_norm",
    "h_commutator",
    "h_mul",
    "heis_pairing",
    "schrodinger_matrix",
    "schrodinger_multiplicity",
    "Family",
    "LineBundleInvariants",
    "ThetaReport",
    "kum_cokernel",
    "kum_cokernel_from_class",
    "og6_cokernel",
    "rank4_cokernel",
    "riemann_roch",
    "theta_report",
    "GramLattice",
    "OG6Class",
    "OrbitInvariant",
    "bbf_pair",
    "bbf_square",
    "divisibility",
    "is_primitive",
    "kum_orbit_split",
    "lambda_kum",
    "lambda_og6",
    "og6_class",
    "__version__",
]
