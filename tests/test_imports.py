"""The package loads a module only when a name from it is first used, and
the CLI only the modules of the command it runs.  Each case runs in a fresh
interpreter, since the test process has imported every module already."""

import json
import os
import subprocess
import sys

import pytest

import orbikt

SRC = os.path.dirname(os.path.dirname(orbikt.__file__))

# Prints the modules the snippet loaded beyond those the interpreter started
# with, as a json list.
PRELUDE = "import sys\n_before = set(sys.modules)\n"
REPORT = "\nprint(json.dumps(sorted(set(sys.modules) - _before)))\n"


def _loaded(snippet):
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + snippet + "\nimport json" + REPORT],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(json.loads(proc.stdout.decode().splitlines()[-1]))


def _loaded_by_command(argv):
    return _loaded(
        "import contextlib, io\n"
        "from orbikt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(%r) == 0\n" % (argv,))


def _orbikt_modules(loaded):
    return {name.split(".", 1)[1] for name in loaded
            if name.startswith("orbikt.")}


def test_import_orbikt_loads_no_submodule():
    loaded = _loaded("import orbikt")
    assert "orbikt" in loaded
    assert _orbikt_modules(loaded) == set()


def test_group_loads_only_table_modules():
    loaded = _loaded_by_command(["group", "--group", "builtin:dihedral:8",
                                 "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert "characters" in modules
    assert not modules & {"complexes", "crossed", "homology", "ktheory",
                          "linalg"}
    assert "dataclasses" not in loaded


def test_prim_loads_no_homology():
    loaded = _loaded_by_command(
        ["prim", "--fixture", "z2-circle", "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert "crossed" in modules
    assert not modules & {"homology", "ktheory", "linalg"}
    assert "dataclasses" not in loaded


def test_ktheory_loads_no_characters():
    loaded = _loaded_by_command(
        ["ktheory", "--fixture", "z2-circle", "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert "ktheory" in modules
    assert not modules & {"crossed", "characters"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["ktheory", "--fixture", "z4-torus", "--format", "json"],
    ["betti", "--fixture", "z2-circle", "--format", "json"],
], ids=["ktheory", "betti"])
def test_homology_commands_load_no_linalg(argv):
    modules = _orbikt_modules(_loaded_by_command(argv))
    assert "homology" in modules
    assert "linalg" not in modules


def test_every_exported_name_resolves_to_its_defining_module():
    """Resolves every name lazily first, then checks it against the module
    that defines it (a class or function names it in ``__module__``; a
    submodule is itself; ``FIXTURE_NAMES`` lives in ``fixtures``)."""
    _loaded(
        "import importlib, types\n"
        "import orbikt\n"
        "unlisted = set(orbikt.__all__) - set(dir(orbikt))\n"
        "assert not unlisted, unlisted\n"
        "assert not hasattr(orbikt, 'no_such_name')\n"
        "values = {n: getattr(orbikt, n) for n in orbikt.__all__}\n"
        "for name, value in values.items():\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        assert value is sys.modules['orbikt.' + name], name\n"
        "        continue\n"
        "    home = getattr(value, '__module__', 'orbikt.fixtures')\n"
        "    assert home.startswith('orbikt.'), (name, home)\n"
        "    defining = importlib.import_module(home)\n"
        "    assert getattr(defining, name) is value, name\n"
        "    assert getattr(orbikt, name) is value, name\n"
        "assert orbikt.__version__ == '1.0.0'\n")


@pytest.mark.parametrize("name", ["cli", "__wrapped__"])
def test_unexported_names_are_not_resolved(name):
    loaded = _loaded(
        "import orbikt\n"
        "assert not hasattr(orbikt, %r)\n" % name)
    assert _orbikt_modules(loaded) == set()


def test_import_star_binds_every_exported_name():
    _loaded(
        "from orbikt import *\n"
        "import orbikt\n"
        "missing = [n for n in orbikt.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert globals()['fixture'] is orbikt.fixtures.fixture\n")
