import hypothesis
import pytest

hypothesis.settings.register_profile("exact", deadline=None, max_examples=100)
hypothesis.settings.load_profile("exact")


@pytest.fixture
def wide_pairing_doc():
    """Five generators, |G| = 829,440, cokernel Z/3 x Z/120.

    A Smith form that does not reduce its entries modulo the exponent grows
    them without bound on this document; the enumeration oracle takes well
    under a second.
    """
    return {
        "orders": [60, 12, 12, 8, 12],
        "matrix": [
            ["0/1", "3/4", "2/3", "1/2", "5/12"],
            ["1/4", "0/1", "1/4", "1/2", "1/2"],
            ["1/3", "3/4", "0/1", "3/4", "1/3"],
            ["1/2", "1/2", "1/4", "0/1", "0/1"],
            ["7/12", "1/2", "2/3", "0/1", "0/1"],
        ],
    }
