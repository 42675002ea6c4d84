"""The package loads a module only when a name from it is first used, and
the CLI only the modules of the command it runs.  Each case runs in a fresh
interpreter, since the test process has imported every module already."""

import json
import os
import re
import subprocess
import sys

import pytest

import orbikt
from orbikt import cli

SRC = os.path.dirname(os.path.dirname(orbikt.__file__))
README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")

# Prints the modules the snippet loaded beyond those the interpreter started
# with, as a json list; json itself is imported only after they are listed.
PRELUDE = "import sys\n_before = set(sys.modules)\n"
REPORT = ("\n_loaded = sorted(set(sys.modules) - _before)\n"
          "import json\nprint(json.dumps(_loaded))\n")
# Character values are algebraic integers, so their coefficients stay ints,
# and group, prim and ktheory load these on no input but a fixture's.
FRACTIONS = {"fractions", "decimal", "_decimal"}


def _loaded(snippet):
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + snippet + REPORT],
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


def _json_package(loaded):
    """The modules of the json package among the loaded ones (the C
    accelerator ``_json`` is not one of them)."""
    return {name for name in loaded
            if name == "json" or name.startswith("json.")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Option -> input file: a z4-torus bundle and a D4 group table."""
    directory = tmp_path_factory.mktemp("inputs")
    bundle = directory / "z4-torus.txt"
    bundle.write_text(orbikt.serialize_bundle(orbikt.fixture("z4-torus")))
    group = directory / "d4.txt"
    group.write_text(orbikt.serialize_group(orbikt.dihedral_group(4)))
    return {"--complex": str(bundle), "--group": str(group)}


def test_import_orbikt_loads_no_submodule():
    loaded = _loaded("import orbikt")
    assert "orbikt" in loaded
    assert _orbikt_modules(loaded) == set()


def test_group_loads_only_table_modules():
    loaded = _loaded_by_command(["group", "--group", "builtin:dihedral:8",
                                 "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert "characters" in modules
    assert not modules & {"complexes", "crossed", "homology", "ktheory"}
    assert "dataclasses" not in loaded
    assert not loaded & FRACTIONS


def test_prim_loads_no_homology():
    loaded = _loaded_by_command(
        ["prim", "--fixture", "z2-circle", "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert "crossed" in modules
    assert not modules & {"homology", "ktheory"}
    assert "dataclasses" not in loaded


def test_ktheory_loads_no_characters():
    loaded = _loaded_by_command(
        ["ktheory", "--fixture", "z2-circle", "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert "ktheory" in modules
    assert not modules & {"crossed", "characters"}
    assert "dataclasses" not in loaded


def test_ktheory_from_a_file_loads_only_its_route(files):
    loaded = _loaded_by_command(["ktheory", "--complex", files["--complex"],
                                 "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert {"cli_ktheory", "ktheory", "homology"} <= modules
    assert not modules & {"fixtures", "cli_table", "euler", "characters",
                          "crossed"}
    assert not loaded & FRACTIONS
    assert not _json_package(loaded)


@pytest.mark.parametrize("command, option, family", [
    ("group", "--group", "cli_groups"),
    ("prim", "--complex", "cli_crossed"),
])
def test_commands_on_files_load_no_fixtures_and_no_json(files, command,
                                                        option, family):
    loaded = _loaded_by_command([command, option, files[option],
                                 "--format", "json"])
    modules = _orbikt_modules(loaded)
    assert family in modules
    assert not modules & {"fixtures", "cli_table"}
    assert not _json_package(loaded)
    assert not loaded & FRACTIONS


def test_every_package_module_is_loaded_by_some_command(tmp_path):
    """A module that no command loads is dead weight in the package: run
    every command, in table and JSON form, in one fresh interpreter and
    compare the union of what they load with the package's modules."""
    steps = tmp_path / "steps.txt"
    steps.write_text("1: (0, 0) (1, 0) (2, 0) (3, 0) (4, 0) (5, 0) (6, 0)\n")
    runs = {"group": ["--group", "builtin:dihedral:4"],
            "fixed": ["1", "--fixture", "z4-torus"],
            "fiber": ["1", "--fixture", "z4-torus"],
            "filtration": [str(steps), "--fixture", "d4-torus"],
            "fixture": ["z4-torus", "--emit"]}
    argvs = [[command, *runs.get(command, ["--fixture", "z4-torus"]),
              *form]
             for command in cli._COMMANDS
             for form in ([], ["--format", "json"])]
    loaded = _loaded(
        "import contextlib, io\n"
        "from orbikt.cli import main\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n" % (argvs,))
    package = os.path.dirname(orbikt.__file__)
    modules = {name[:-3] for name in os.listdir(package)
               if name.endswith(".py") and name != "__init__.py"}
    assert _orbikt_modules(loaded) == modules


def _lines_loaded_table():
    """README's table of what each command loads: command -> (modules,
    summed source lines)."""
    with open(README, encoding="utf-8") as handle:
        rows = re.findall(r"^\| `(\w+)` +\| (.+?) \| ([\d,]+) \|$",
                          handle.read(), flags=re.M)
    return {command: (set(re.findall(r"`(\w+)`", modules)),
                      int(lines.replace(",", "")))
            for command, modules, lines in rows}


def _source_lines(module):
    """What ``wc -l`` counts for the module's file."""
    path = os.path.join(os.path.dirname(orbikt.__file__), module + ".py")
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


def test_readme_tabulates_the_four_commands_on_files():
    assert sorted(_lines_loaded_table()) == ["betti", "group", "ktheory",
                                             "prim"]


@pytest.mark.parametrize("command, option", [
    ("ktheory", "--complex"), ("prim", "--complex"), ("group", "--group"),
    ("betti", "--complex"),
])
def test_readme_table_of_loaded_modules_and_lines(files, command, option):
    """The README row names the orbikt modules the command loads on a file
    input (the package ``__init__`` aside) and their summed line count."""
    modules, lines = _lines_loaded_table()[command]
    loaded = _orbikt_modules(_loaded_by_command([command, option,
                                                 files[option],
                                                 "--format", "json"]))
    assert loaded == modules
    assert sum(map(_source_lines, loaded)) == lines


def test_only_the_table_format_loads_the_table_writer():
    argv = ["bc", "--fixture", "z2-circle"]
    assert "cli_table" in _orbikt_modules(_loaded_by_command(argv))
    assert "cli_table" not in _orbikt_modules(
        _loaded_by_command(argv + ["--format", "json"]))


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


@pytest.mark.parametrize("name", ["cli", "__wrapped__", "transfer",
                                  "invariants_check"])
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
