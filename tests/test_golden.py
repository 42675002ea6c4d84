"""CLI outputs compared byte for byte with files under tests/golden/.

The files record the outputs of the commands below; a change to any of them
is a change in the program's answers and must be deliberate.
"""

import os
import subprocess
import sys

import pytest

import orbikt
from orbikt.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN = {
    "ktheory_z4-torus.json":
        ["ktheory", "--fixture", "z4-torus", "--format", "json"],
    "ktheory_z2-circle.json":
        ["ktheory", "--fixture", "z2-circle", "--format", "json"],
    "ktheory_z2-antipodal-sphere.json":
        ["ktheory", "--fixture", "z2-antipodal-sphere", "--format", "json"],
    "bc_d4-torus.json": ["bc", "--fixture", "d4-torus", "--format", "json"],
    "quotient_z4-torus.json":
        ["quotient", "--fixture", "z4-torus", "--format", "json"],
    "orbits_d4-torus.json":
        ["orbits", "--fixture", "d4-torus", "--format", "json"],
    "orbits_d4-torus-6-seed3.json":
        ["orbits", "--complex",
         os.path.join(GOLDEN_DIR, "d4-torus-6-seed3.txt"), "--format", "json"],
    "complex_d4-torus.json":
        ["complex", "--fixture", "d4-torus", "--format", "json"],
    "fixture_z4-torus_emit.txt": ["fixture", "z4-torus", "--emit"],
    "fixture_d4-torus_emit.txt": ["fixture", "d4-torus", "--emit"],
    "fixture_z2-flip-torus_emit.txt": ["fixture", "z2-flip-torus", "--emit"],
    "group_product-dihedral-8-cyclic-6.json":
        ["group", "--group", "builtin:product:dihedral:8:cyclic:6",
         "--format", "json"],
    "group_cyclic-24.json":
        ["group", "--group", "builtin:cyclic:24", "--format", "json"],
    "group_product-dihedral-4-dihedral-4.json":
        ["group", "--group", "builtin:product:dihedral:4:dihedral:4",
         "--format", "json"],
    "group_cyclic-30.json":
        ["group", "--group", "builtin:cyclic:30", "--format", "json"],
    "group_product-cyclic-3-dihedral-5.json":
        ["group", "--group", "builtin:product:cyclic:3:dihedral:5",
         "--format", "json"],
    "group_cyclic-64.json":
        ["group", "--group", "builtin:cyclic:64", "--format", "json"],
    "group_product-cyclic-8-cyclic-12.json":
        ["group", "--group", "builtin:product:cyclic:8:cyclic:12",
         "--format", "json"],
    # |G| > 64: orthogonality is checked on the diagonal-only pair set
    "group_dihedral-64.json":
        ["group", "--group", "builtin:dihedral:64", "--format", "json"],
    "group_product-dihedral-8-dihedral-8.json":
        ["group", "--group", "builtin:product:dihedral:8:dihedral:8",
         "--format", "json"],
    "prim_d4-torus.json":
        ["prim", "--fixture", "d4-torus", "--format", "json"],
    "prim_d4-torus_aggregate.json":
        ["prim", "--fixture", "d4-torus", "--aggregate", "--format", "json"],
    # element and vertex labels drawn with seed 3, so orbit representatives
    # have stabilizers that are conjugate but not equal
    "prim_d4-torus-6-seed3.json":
        ["prim", "--complex", os.path.join(GOLDEN_DIR, "d4-torus-6-seed3.txt"),
         "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, capsysbinary):
    code = main(GOLDEN[name])
    out, err = capsysbinary.readouterr()
    assert code == 0 and err == b""
    with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
        assert out == f.read()


def _program_output(python, name, tmp_path):
    """Exit status, stderr and stdout of ``python [python...] -m orbikt.cli``
    on the golden's command, with stdout redirected to a regular file as
    the benchmark does."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(orbikt.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    path = tmp_path / "out"
    with open(path, "wb") as out:
        proc = subprocess.run(
            [sys.executable, *python, "-m", "orbikt.cli"] + GOLDEN[name],
            env=env, stdout=out, stderr=subprocess.PIPE, timeout=120,
            check=False)
    return proc.returncode, proc.stderr, path.read_bytes()


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
        return f.read()


def test_golden_holds_without_asserts(tmp_path):
    """Under ``python -O`` (asserts stripped) the answers are unchanged."""
    name = "group_cyclic-24.json"
    assert _program_output(["-O"], name, tmp_path) == (0, b"", _golden(name))


@pytest.mark.parametrize("name", ["group_cyclic-24.json",
                                  "prim_d4-torus.json"])
@pytest.mark.parametrize("python", [[], ["-u"]],
                         ids=["buffered", "unbuffered"])
def test_golden_written_to_a_regular_file(name, python, tmp_path):
    """The program, which ends without the interpreter's teardown, writes
    the whole golden."""
    assert _program_output(python, name, tmp_path) == (0, b"", _golden(name))
