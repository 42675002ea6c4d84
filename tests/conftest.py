import importlib.util
import os

import pytest

from orbikt import GSimplicialComplex, dihedral_group, fixture
from orbikt.fixtures import circle_complex

INPUTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "bench", "inputs.py")


@pytest.fixture(scope="session")
def d4_torus():
    return fixture("d4-torus")


@pytest.fixture(scope="session")
def z4_torus():
    return fixture("z4-torus")


@pytest.fixture(scope="session")
def z2_flip_torus():
    return fixture("z2-flip-torus")


@pytest.fixture(scope="session")
def z2_circle():
    return fixture("z2-circle")


@pytest.fixture(scope="session")
def all_fixtures(d4_torus, z4_torus, z2_flip_torus, z2_circle):
    return {
        "d4-torus": d4_torus,
        "z4-torus": z4_torus,
        "z2-flip-torus": z2_flip_torus,
        "z2-circle": z2_circle,
    }


@pytest.fixture(scope="session")
def s3_circle():
    """S3 = dihedral_group(3) on the 8-cycle: the rotations act trivially and
    the reflections by v -> v + 4.  One stratum with stabilizer Z3; going
    around it conjugates by a reflection, which swaps Z3's two non-trivial
    irreps."""
    shift = tuple((v + 4) % 8 for v in range(8))
    action = [tuple(range(8))] * 3 + [shift] * 3
    return GSimplicialComplex(circle_complex(8), dihedral_group(3), action)


@pytest.fixture(scope="session")
def inputs():
    """bench/inputs.py, loaded from the file so that the tests and the
    benchmark draw the same seeded inputs (``relabel_action``,
    ``torus_action``).  Seed 0 renames nothing."""
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
