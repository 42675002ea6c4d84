"""Every callable the per-layer tracer in bench/trace_call.py wraps must
exist under the name it is listed by, and its argument probes must still
receive what they measure, so that moving, renaming or changing the input
of a function cannot silently break a traced benchmark run."""

import importlib.util
import os

import pytest

from orbikt import boundary_matrix, fixture, homology

TRACE_CALL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "bench", "trace_call.py")


@pytest.fixture(scope="module")
def trace_call():
    spec = importlib.util.spec_from_file_location("trace_call", TRACE_CALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(trace_call):
    names = [*trace_call.TIMED, *trace_call.COUNTED]
    assert names
    for name in names:
        _, original = trace_call._lookup(name)
        assert callable(original), name


def test_matrix_probe_sees_dense_boundary_matrices(trace_call, monkeypatch):
    """The ``entries``/``nnz`` probe on the SNF oracle gets each boundary
    matrix as a dense rectangular list of lists, whose k-th matrix has k + 1
    nonzeros per column."""
    seen = []
    oracle = homology.smith_invariant_factors

    def recording(matrix):
        seen.append(matrix)
        return oracle(matrix)

    monkeypatch.setattr(homology, "smith_invariant_factors", recording)
    complex = fixture("z4-torus").complex
    homology.homology_integral(complex)
    assert len(seen) == complex.dimension
    for k, matrix in enumerate(seen, start=1):
        assert isinstance(matrix, list)
        assert all(isinstance(row, list) and len(row) == len(matrix[0])
                   for row in matrix)
        assert matrix == boundary_matrix(complex, k)
        assert trace_call._matrix_size(matrix) == {
            "entries": len(matrix) * len(matrix[0]),
            "nnz": (k + 1) * len(matrix[0])}
