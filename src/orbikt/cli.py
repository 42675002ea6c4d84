"""Command-line front end.

One batch run per invocation: inputs are resolved (fixture name, or group and
complex files), the requested command dispatches to a library operation, and
the result is printed as an aligned table or as a single json document with
top-level keys ``meta``, ``payload``, ``flags``, written in bounded pieces
(``json_pieces``).  The json output is
byte-identical across runs for identical inputs (sorted keys, canonical
integers, no timestamps).

Exit status: 0 on success, 1 on input errors, 2 when a mathematical
precondition of the requested computation fails (refusals such as
NotIsolated, NotApplicable, NotOpen).  Output that cannot be written (a
closed pipe, a full device) is an input error too, reported by one stderr
line.  ``main`` returns the status; ``entry``, the program that
``python -m orbikt.cli`` and the ``orbikt`` script run, flushes the output
and exits with that status without the interpreter's teardown.

Each command's handler lives in a module of its family (``cli_groups``,
``cli_complexes``, ``cli_crossed``, ``cli_ktheory``), which imports the
library modules the command runs; the table writer lives in ``cli_table``.
A call imports the one family module its command names, before any input is
built, and ``cli_table`` only for ``--format table``, so with bytecode
caching off it compiles only the code it runs.
"""

import argparse
import importlib
import os
import sys
from typing import NamedTuple

from .errors import BadAction, InternalInconsistency, OrbiktError, ParseError
from .formats import (check_order, parse_action_text, parse_builtin_spec,
                      parse_complex_text, parse_group_text, read_file,
                      split_bundle_text)

try:  # the C string quoter that the json package itself uses
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter built without it
    from json.encoder import encode_basestring_ascii as _quote

FORMAT_VERSION = 1


class _FixtureNames:
    """The fixture names as argparse choices.  Only checking a --fixture or
    ``fixture NAME`` value (``in`` iterates) and writing help read them, so
    only those import ``fixtures``."""

    def __iter__(self):
        from .fixtures import FIXTURE_NAMES

        return iter(FIXTURE_NAMES)


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not refusals (exit 2)."""

    def error(self, message):
        raise ParseError(message)


def build_parser(argv=None) -> _Parser:
    """The argument parser.  When argv[0] names a command, only that
    command's subparser is added, which parses argv exactly as the full
    parser does; otherwise (``orbikt --help``, an unknown or missing
    command) every subparser is."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", metavar="FILE|builtin:SPEC",
                        help="group file, or builtin:cyclic:N, "
                             "builtin:dihedral:N, builtin:product:A:B, "
                             "builtin:trivial")
    common.add_argument("--complex", metavar="FILE", dest="complex_file",
                        help="complex file; may also carry act lines and an "
                             "embedded group section")
    common.add_argument("--fixture", choices=_FixtureNames(), metavar="NAME",
                        help="built-in example: one of %(choices)s")
    common.add_argument("--format", choices=("table", "json"),
                        default="table")
    common.add_argument("--max-order", type=int, default=512, metavar="N",
                        help="refuse groups larger than N (default 512)")

    parser = _Parser(prog="orbikt",
                     description="Exact invariants of finite group actions "
                                 "on simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    wanted = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (_, help_text, arguments) in _COMMANDS.items():
        if wanted in (None, name):
            p = sub.add_parser(name, parents=[common], help=help_text)
            for names, options in arguments:
                p.add_argument(*names, **options)
    return parser


# -- input resolution ---------------------------------------------------------


class Inputs(NamedTuple):
    """Resolved inputs for one run: at most one group, complex, action."""

    group: object = None         # FiniteGroup
    complex: object = None       # SimplicialComplex
    gx: object = None            # GSimplicialComplex
    fixture_name: object = None  # str

    def require_group(self):
        if self.group is None:
            raise ParseError("this command needs a group "
                             "(--group or --fixture)")
        return self.group

    def require_complex(self):
        if self.complex is None:
            raise ParseError("this command needs a complex "
                             "(--complex or --fixture)")
        return self.complex

    def require_action(self):
        if self.gx is None:
            raise BadAction("this command needs a group action: supply "
                            "--fixture, or a --complex file with act lines "
                            "and a group")
        return self.gx


def _load_group(source, max_order):
    if source.startswith("builtin:"):
        return parse_builtin_spec(source[len("builtin:"):], max_order)
    return parse_group_text(read_file(source), max_order)


def resolve_inputs(args) -> Inputs:
    name = args.fixture
    if getattr(args, "name", None):  # the example named by `fixture NAME`
        if name or args.group or args.complex_file:
            raise ParseError("fixture NAME cannot be combined with "
                             "--fixture, --group or --complex")
        name = args.name
    if name:
        if args.group or args.complex_file:
            raise ParseError("--fixture cannot be combined with --group "
                             "or --complex")
        from .fixtures import fixture

        gx = fixture(name)
        check_order(gx.group.order, args.max_order)
        return Inputs(gx.group, gx.complex, gx, name)

    group = _load_group(args.group, args.max_order) if args.group else None
    complex = None
    action_text = None
    if args.complex_file:
        sections = split_bundle_text(read_file(args.complex_file))
        if sections["complex"] is None:
            raise ParseError("%s contains no complex section"
                             % args.complex_file)
        # the group section, and its order, is checked before the complex
        if sections["group"] is not None:
            if group is not None:
                raise ParseError("group given both via --group and inside "
                                 "the complex file")
            group = parse_group_text(sections["group"], args.max_order)
        complex = parse_complex_text(sections["complex"])
        action_text = sections["action"]
    gx = None
    if action_text is not None:
        if group is None:
            raise ParseError("action lines need a group (--group or an "
                             "embedded group section)")
        gx = parse_action_text(action_text, group, complex)
    return Inputs(group, complex, gx)


# command -> (the module holding its handler, help, its own arguments as
# (names, options) pairs), in help order; the handler of command "a-b" is
# that module's cmd_a_b(inputs, args), which returns (payload, flags)
_COMMANDS = {
    "group": ("cli_groups", "conjugacy classes and character table", ()),
    "complex": ("cli_complexes", "face counts and Euler characteristic", ()),
    "orbits": ("cli_complexes", "simplex orbits with stabilizers", ()),
    "fixed": ("cli_complexes", "fixed-point subcomplex of the listed elements",
              [(["elements"], dict(nargs="+", metavar="ELT",
                                   help="group elements by name or index"))]),
    # the one command that builds the simplicial quotient sd(X)/G
    "quotient": ("cli_complexes", "orbit space as a simplicial complex", ()),
    "betti": ("cli_complexes", "integral homology of the complex", ()),
    "euler": ("cli_ktheory", "equivariant Euler characteristic",
              [(["--method"], dict(default="bc", choices=(
                  "bc", "pairs", "isolated", "quotient-check")))]),
    "fiber": ("cli_crossed", "fiber blocks of the crossed product over a "
                             "point with the given stabilizer",
              [(["generators"], dict(
                  nargs="*", metavar="ELT",
                  help="stabilizer generators by name or index "
                       "(none = trivial subgroup)"))]),
    "prim": ("cli_crossed", "primitive-ideal specialization poset",
             [(["--aggregate"], dict(
                 action="store_true",
                 help="merge nodes along isotropy strata"))]),
    "filtration": ("cli_crossed", "validate an increasing open filtration",
                   [(["file"], dict(
                       metavar="FILE",
                       help="one line per step: "
                            "'k: (stratum-id, irrep-id) ...'"))]),
    "bc": ("cli_ktheory", "localization summands by conjugacy class", ()),
    "ktheory": ("cli_ktheory",
                "integral K-groups in the isolated-orbit regime", ()),
    "identity-check": ("cli_ktheory",
                       "localization totals against the orbit-count "
                       "identity for zero-dimensional fixed sets", ()),
    "fixture": ("cli_complexes", "describe or export a built-in example",
                [(["name"], dict(choices=_FixtureNames(), metavar="NAME")),
                 (["--emit"], dict(
                     action="store_true",
                     help="print the example as a group/complex/action "
                          "document"))]),
}


# -- json output --------------------------------------------------------------


def _meta(inputs, args):
    meta = {"command": args.command, "format_version": FORMAT_VERSION,
            "deterministic": True}
    if inputs.fixture_name:
        meta["fixture"] = inputs.fixture_name
    if inputs.group is not None:
        meta["group_order"] = inputs.group.order
    if inputs.complex is not None:
        meta["f_vector"] = list(inputs.complex.f_vector())
    return meta


# The longest piece json_pieces makes, in characters, and the most rows of
# a uniform row list that one % format writes (see _rows_text).
PIECE_CHARS = 1 << 15
_BATCH_ROWS = 128


def report_json(meta, payload, flags) -> str:
    """The document as json.dumps(doc, sort_keys=True, indent=2) writes it:
    the pieces of json_pieces, joined."""
    return "".join(json_pieces(meta, payload, flags))


def json_pieces(meta, payload, flags) -> list:
    """The text json.dumps(doc, sort_keys=True, indent=2) writes for the
    document, as a list of strs that join to it, none longer than
    PIECE_CHARS: a long document is never held as one str.

    With an indent, json.dumps runs its pure-Python encoder; _json_text
    writes the same text in far fewer steps.  Every payload and flag is a
    str, int, bool, None, or a list, tuple or str-keyed dict of such values;
    any other value is a bug, reported as InternalInconsistency.  Every
    piece is made before this returns, so a caller that writes the pieces
    writes either the whole document or, on that error, nothing.
    """
    doc = {"meta": meta, "payload": payload, "flags": flags}
    text = _json_text(doc, "\n")
    if type(text) is str:
        return [text]
    if max(map(len, text)) <= PIECE_CHARS:
        return text
    # a long str value, or a batch of long rows
    return [piece[at:at + PIECE_CHARS] for piece in text
            for at in range(0, len(piece), PIECE_CHARS)]


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(value, newline):
    """The indented json of a str, int, bool, None, or a list, tuple or
    str-keyed dict of such values; newline is the line break plus the
    indent of the line the value starts on.  A container whose text may
    be longer than PIECE_CHARS gives, instead of one str, the list of strs
    that join to it: its opening, the texts of its items and the
    separators between them, and its closing, with the list of each item
    that gave one spliced in.

    A list of uniform rows (see _rows_text) is written from one row
    template, _BATCH_ROWS rows at a time; every other value is written
    item by item."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _JSON_CONSTANTS[value]
    inner = newline + "  "
    separator = "," + inner
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        opening, closing = "[", "]"
        texts = (_rows_text(value, inner)
                 or [_json_text(x, inner) for x in value])
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        opening, closing = "{", "}"
        keys = sorted(value)
        texts = [_json_text(value[key], inner) for key in keys]
        texts = [key + ": " + text if type(text) is str
                 else [key + ": ", *text]
                 for key, text in zip(map(_quote, keys), texts)]
    else:
        raise InternalInconsistency("no json writer for a %s value"
                                    % kind.__name__)
    # at least the length of the joined text: separator is as long as
    # opening + inner, and longer than newline + closing
    if (sum(map(len, texts)) + len(separator) * (len(texts) + 1)
            <= PIECE_CHARS):
        try:
            return (opening + inner + separator.join(texts) + newline
                    + closing)
        except TypeError:  # one of the texts is a list of strs
            pass
    strs = [opening + inner]
    for text in texts:
        if type(text) is str:
            strs.append(text)
        else:
            strs += text
        strs.append(separator)
    strs[-1] = newline + closing
    return strs


def _rows_text(rows, newline):
    """The json of the items of rows, _BATCH_ROWS rows at a time, each
    batch's rows joined by "," and newline, when they are uniform rows:
    every item an int, every item a non-empty list of ints of one length,
    or every item a dict with one non-empty set of str keys and int values
    (bool is not int here).  Each batch is written by one % format of a
    row template over its values in sorted-key order.  None otherwise."""
    first = rows[0]
    kind = type(first)
    inner = newline + "  "
    if kind is int:
        row_template = "%d"
    elif kind is list and first:
        width = len(first)
        if any(type(row) is not list or len(row) != width for row in rows):
            return None
        row_template = ("[" + inner + ("," + inner).join(["%d"] * width)
                        + newline + "]")
    elif kind is dict and first and all(type(key) is str for key in first):
        keys = sorted(first)
        if any(type(row) is not dict or row.keys() != first.keys()
               for row in rows):
            return None
        fields = [_quote(key).replace("%", "%%") + ": %d" for key in keys]
        row_template = "{" + inner + ("," + inner).join(fields) + newline + "}"
    else:
        return None
    texts, template, size = [], "", 0
    for start in range(0, len(rows), _BATCH_ROWS):
        batch = rows[start:start + _BATCH_ROWS]
        if kind is int:
            values = batch
        elif kind is list:
            values = [x for row in batch for x in row]
        else:
            values = [row[key] for row in batch for key in keys]
        if any(type(x) is not int for x in values):
            return None
        if len(batch) != size:  # the first batch, or a shorter last one
            size = len(batch)
            template = ("," + newline).join([row_template] * size)
        texts.append(template % tuple(values))
    return texts


# -- entry point -----------------------------------------------------------------


def run(argv) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    # The handler's module, and with it the library it runs, is compiled
    # before any input is built, so the compiler's transient memory does not
    # land on top of a resident complex.
    family = importlib.import_module("." + _COMMANDS[args.command][0],
                                     __package__)
    handler = getattr(family, "cmd_" + args.command.replace("-", "_"))
    inputs = resolve_inputs(args)
    payload, flags = handler(inputs, args)
    if args.format == "json":
        pieces = json_pieces(_meta(inputs, args), payload, flags)
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
    else:
        from .cli_table import render_table

        print(render_table(args.command, payload, flags))
    return 0


def main(argv=None) -> int:
    """Run one call and return its exit status; the in-process entry."""
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except OrbiktError as exc:
        return _diagnose(exc.exit_code, "%s: %s" % (exc.kind, exc))
    except OSError as exc:
        return _output_failed(exc)


def _output_failed(exc) -> int:
    """Report stdout that cannot be written, a reader that closed the pipe
    (``orbikt ... | head -c 10``) or a full device, by one stderr line and
    exit status 1."""
    _to_devnull(sys.stdout)
    return _diagnose(1, "BrokenPipeError: output closed early"
                     if isinstance(exc, BrokenPipeError)
                     else "OSError: %s" % (exc,))


def _diagnose(code, message) -> int:
    """Write one diagnostic line to stderr and return code; a stderr that
    is closed (``orbikt ... 2>&-``) or fails loses the line, not the code."""
    if sys.stderr is not None:  # None when the process starts without fd 2
        try:
            print("orbikt: " + message, file=sys.stderr, flush=True)
        except OSError:
            _to_devnull(sys.stderr)
    return code


def _to_devnull(stream):
    """Send what a failed stream still buffers, and all it gets later, to
    devnull, so no later flush fails again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def entry():
    """The ``orbikt`` program: main(), a flush of stdout and stderr, and
    os._exit with main's status, which skips the interpreter's teardown.
    A json reply is written as the pieces of json_pieces, all made before
    the first is written, so a value the writer cannot write leaves stdout
    empty; output that fails in mid-reply, or in the final flush, is
    reported as main reports any output failure.  orbikt registers
    no atexit handler and writes no file of its own, so nothing is lost;
    code that opens a file must close it before main returns.  Tools that
    run this module as __main__ and report at exit (cProfile, coverage)
    should call main() instead."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _output_failed(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
