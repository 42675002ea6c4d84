"""The examples in README.md must hold: each ``console`` block is run through
the CLI and compared with the text shown, and each commented value of the
Library block is compared with what its expression evaluates to.  The
Commands table lists the parser's commands and options."""

import ast
import os
import re
import shlex

import pytest

import orbikt
from orbikt.cli import _COMMANDS, main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


def _readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def _blocks(language):
    return re.findall(r"^```%s\n(.*?)^```$" % language, _readme(),
                      flags=re.M | re.S)


def _console_examples():
    examples = []
    for block in _blocks("console"):
        command, *shown = block.splitlines()
        assert command.startswith("$ orbikt "), command
        examples.append(pytest.param(command[2:], shown, id=command[9:]))
    return examples


def test_readme_has_the_examples_it_is_checked_on():
    assert len(_console_examples()) == 3
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("command, shown", _console_examples())
def test_console_example(capsys, command, shown):
    """A command, optionally piped to ``tail -N``, prints the lines shown."""
    argv, _, pipe = command.partition(" | ")
    assert main(shlex.split(argv)[1:]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    if pipe:
        tail, option = pipe.split()
        assert tail == "tail" and option.startswith("-")
        lines = lines[-int(option[1:]):]
    assert err == ""
    assert lines == shown


def test_library_example():
    """Run the Library block statement by statement; an expression with a
    trailing comment must equal the comment's value."""
    (block,) = _blocks("python")
    lines = block.splitlines()
    namespace = {name: getattr(orbikt, name) for name in orbikt.__all__}
    checked = 0
    for statement in ast.parse(block).body:
        code, _, comment = lines[statement.end_lineno - 1].partition("  # ")
        if isinstance(statement, ast.Expr) and comment:
            assert (eval(code, namespace)
                    == eval(comment, namespace)), code.strip()
            checked += 1
        else:
            exec(ast.get_source_segment(block, statement), namespace)
    assert checked == 5


def test_commands_table_lists_the_parsers_commands_and_options():
    """Each row's first cell names one command of cli._COMMANDS, in order,
    with exactly the --options that command adds to the common ones."""
    section = _readme().split("### Commands\n\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]*)` \|", section, flags=re.M)
    listed = [(cell.split()[0], re.findall(r"--[a-z-]+", cell))
              for cell in rows]
    parsed = [(name, [flag for names, _ in arguments for flag in names
                      if flag.startswith("--")])
              for name, (_, _, arguments) in _COMMANDS.items()]
    assert listed == parsed
