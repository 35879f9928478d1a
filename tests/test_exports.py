"""Each layer's `__all__` is the one list of its public names; the package's is
built from them."""

import pytest

import hktheta
from hktheta import finabgrp, heisenberg, invariants, lattices, sweeps

LAYERS = (finabgrp, heisenberg, invariants, lattices)

# the package's exports before it was built from the layers' lists
EXPORTS_BEFORE = [
    "AbGroupStructure", "FinAbGroup", "GroupElement", "OG6PairingCase", "Pairing", "QmodZ",
    "brute_cokernel", "eval_pairing", "is_nondegenerate", "pairing_cokernel", "pairing_radical",
    "standard_kum_pairing", "standard_og6_pairing", "tensor_pairing", "GenPermMatrix",
    "HeisElem", "character_norm", "h_commutator", "h_mul", "heis_pairing", "schrodinger_matrix",
    "schrodinger_multiplicity", "Family", "LineBundleInvariants", "ThetaReport", "kum_cokernel",
    "og6_cokernel", "rank4_cokernel", "riemann_roch", "theta_report",
    "GramLattice", "OG6Class", "OrbitInvariant", "bbf_pair", "bbf_square", "divisibility",
    "is_primitive", "kum_orbit_split", "lambda_kum", "lambda_og6", "og6_class", "__version__",
]


def test_package_exports_the_layers_lists():
    names = hktheta.__all__
    assert len(names) == len(set(names))
    assert names == ["__version__", *(name for layer in LAYERS for name in layer.__all__)]
    assert len(EXPORTS_BEFORE) == 42 and set(EXPORTS_BEFORE) <= set(names)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(hktheta, name) is getattr(layer, name), name


@pytest.mark.parametrize("module", [*LAYERS, sweeps], ids=lambda m: m.__name__)
def test_all_lists_every_public_function_and_class_the_module_defines(module):
    # callable and defined here: functions, classes and functools wrappers,
    # whose __module__ names the module that wraps them (cyclotomic_poly)
    defined = {name for name, obj in vars(module).items() if not name.startswith("_")
               and callable(obj) and getattr(obj, "__module__", None) == module.__name__}
    extra = {"SWEEPS"} if module is sweeps else set()
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined | extra
    assert "cyclotomic_poly" in heisenberg.__all__ and "h_inv" in hktheta.__all__
