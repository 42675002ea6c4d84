"""Every callable the per-layer tracer in bench/trace_call.py wraps must
exist under the name it is listed by, and its argument probes must still
receive what they measure, so that moving, renaming or changing the input
of a function cannot silently break a traced benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys

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


INPUT_PATH_STAGES = ("formats.parse_group_text", "formats.parse_complex_text",
                     "formats.parse_action_text",
                     "complexes.SimplicialComplex.__init__",
                     "crossed.specialization")


def test_a_traced_prim_call_reaches_the_input_path_stages(inputs, tmp_path):
    """A name that resolves can still go dark: when the CLI stops calling
    it, its span is never recorded and its per-layer metric reads 0 with
    nothing failing.  ``cli.report_json`` went dark that way once the
    replies were written in pieces by ``cli.json_pieces``.  So
    bench/trace_call.py runs one grid-6 ``prim --complex`` call in a fresh
    interpreter, and each input-path stage must leave a span."""
    bundle = tmp_path / "d4-torus-6.txt"
    bundle.write_text(inputs.torus_bundle_text("d4", 6, 13))
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, TRACE_CALL, str(spans), "0", "--", "prim",
         "--complex", str(bundle), "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"]["nodes"]
    names = {json.loads(line).get("name")
             for line in spans.read_text().splitlines()}
    assert set(INPUT_PATH_STAGES) <= names
