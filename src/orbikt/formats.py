"""Text file formats for groups, complexes, actions, and filtrations.

All formats are line-oriented: blank lines and lines starting with ``#`` are
ignored, tokens are whitespace-separated.

Group file::

    group <n>
    table            # followed by n rows of n element indices
    ...
    group <n>
    perm <k>         # followed by generator lines, each a permutation of
    ...              # 0..k-1 in image notation; the expansion must have
                     # exactly n elements

Builtin group specs (CLI ``--group builtin:...``)::

    trivial | cyclic:<n> | dihedral:<n> | product:<spec>:<spec>

Complex file::

    vertices <n>
    simplex v0 v1 ... vk     # maximal simplices of distinct vertices;
                             # the closure is computed

Action file (one line per generator; the remaining group elements are
derived through the multiplication table and cross-checked)::

    act <group-element-index> : <vertex permutation in image notation>

Filtration file (one line per step, 1-based increasing step labels; each
line lists the (stratum-id, irrep-id) pairs ADDED at that step)::

    1: (0, 0) (1, 0)
    2: (0, 1)
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import BadAction, BoundExceeded, NotAGroup, ParseError, echo
from .groups import (GROUP_ORDER_BOUND, FiniteGroup, cyclic_group,
                     dihedral_group, group_from_permutations, product_group,
                     trivial_group)

if TYPE_CHECKING:
    from .complexes import GSimplicialComplex, SimplicialComplex


def read_file(path):
    """The text of a UTF-8 file; ParseError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError:
        raise ParseError("cannot read %s: not UTF-8 text" % path)


def _content_lines(text):
    """Split into (lineno, stripped content) pairs, dropping blanks/comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _int_token(token, lineno, what):
    """int(token), or a ParseError naming the line and the token."""
    try:
        return int(token)
    except ValueError:
        raise ParseError("line %d: %s must be an integer, got %s"
                         % (lineno, what, echo(token)))


def _int_tokens(tokens, lineno, what):
    """The tokens of one line as integers, converted in one pass; only when
    one is not an integer are they scanned again, to name the first such."""
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_int_token(token, lineno, what) for token in tokens]


# -- groups --------------------------------------------------------------------


def check_order(order, max_order):
    """BoundExceeded when order exceeds max_order (None: no bound)."""
    if max_order is not None and order > max_order:
        raise BoundExceeded("group order %d exceeds --max-order %d"
                            % (order, max_order))


def parse_group_text(text, max_order=None) -> FiniteGroup:
    """A group file; with ``max_order``, the order its header declares is
    checked before any element is read."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty group file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "group":
        raise ParseError("line %d: expected header 'group <n>'" % lineno)
    n = _int_token(parts[1], lineno, "group order")
    if n < 1:
        raise ParseError("line %d: group order must be positive" % lineno)
    check_order(n, max_order)
    if len(lines) < 2:
        raise ParseError("group file ends after the header")
    lineno, mode_line = lines[1]
    mode = mode_line.split()
    body = lines[2:]

    if mode[0] == "table":
        if len(mode) != 1:
            raise ParseError("line %d: 'table' takes no arguments" % lineno)
        if len(body) != n:
            raise ParseError("expected %d table rows, found %d"
                             % (n, len(body)))
        table = []
        for row_lineno, row_line in body:
            row = _int_tokens(row_line.split(), row_lineno, "table entry")
            if len(row) != n:
                raise ParseError("line %d: expected %d entries in table row"
                                 % (row_lineno, n))
            table.append(row)
        return FiniteGroup(table)

    if mode[0] == "perm":
        if len(mode) != 2:
            raise ParseError("line %d: expected 'perm <k>'" % lineno)
        degree = _int_token(mode[1], lineno, "permutation degree")
        if degree < 1:
            raise ParseError("line %d: permutation degree must be positive"
                             % lineno)
        if not body:
            raise ParseError("'perm' group file lists no generators")
        perms = []
        for row_lineno, row_line in body:
            images = _int_tokens(row_line.split(), row_lineno, "image")
            if len(images) != degree:
                raise ParseError("line %d: expected %d images" %
                                 (row_lineno, degree))
            perms.append(tuple(images))
        # the walk stops past the header's order, and past GROUP_ORDER_BOUND
        # when no max_order bounds the header
        group = group_from_permutations(
            degree, perms, bound=min(n, max_order or GROUP_ORDER_BOUND))
        if group.order != n:
            raise NotAGroup(
                "permutation generators produce a group of order %d, "
                "but the header declares %d" % (group.order, n))
        return group

    raise ParseError("line %d: expected 'table' or 'perm <k>', got %s"
                     % (lineno, echo(mode[0])))


def serialize_group(group: FiniteGroup) -> str:
    lines = ["group %d" % group.order, "table"]
    for row in group.mult:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_builtin_spec(spec, max_order=None) -> FiniteGroup:
    """Parse a colon-separated builtin group spec such as ``cyclic:4`` or
    ``product:cyclic:2:dihedral:3`` (prefix notation, read left to right with
    a stack of the open products, so any depth parses).

    With ``max_order``, each group's order is computed from the spec and
    checked before its table is built, so an oversized group is refused
    with BoundExceeded without allocating it."""
    tokens = [t for t in spec.split(":") if t != ""]
    if not tokens:
        raise ParseError("empty builtin group spec")
    named = echo(spec, "builtin spec")
    pos, open_products = 0, []  # each open product: None or its left factor
    while True:
        if pos >= len(tokens):
            raise ParseError("%s ends mid-expression" % named)
        head = tokens[pos]
        pos += 1
        if head == "product":
            open_products.append(None)
            continue
        if head == "trivial":
            group = trivial_group()
        elif head in ("cyclic", "dihedral"):
            if pos >= len(tokens):
                raise ParseError("%s: %s needs a parameter" % (named, head))
            try:
                n = int(tokens[pos])
            except ValueError:
                raise ParseError("%s: %s parameter must be an integer, got %s"
                                 % (named, head, echo(tokens[pos])))
            pos += 1
            check_order(n if head == "cyclic" else 2 * n, max_order)
            group = (cyclic_group if head == "cyclic" else dihedral_group)(n)
        else:
            raise ParseError("unknown builtin group %s (expected trivial, "
                             "cyclic, dihedral, or product)" % echo(head))
        # a finished group is the right factor of every open product that
        # has its left one, and the left factor of the innermost other one
        while open_products and open_products[-1] is not None:
            left = open_products.pop()
            check_order(left.order * group.order, max_order)
            group = product_group(left, group)
        if not open_products:
            break
        open_products[-1] = group
    if pos != len(tokens):
        raise ParseError("%s has trailing tokens %s"
                         % (named, echo(":".join(tokens[pos:]))))
    return group


# -- complexes -------------------------------------------------------------------


def parse_complex_text(text) -> SimplicialComplex:
    from .complexes import SimplicialComplex

    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty complex file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise ParseError("line %d: expected header 'vertices <n>'" % lineno)
    n = _int_token(parts[1], lineno, "vertex count")
    maximal = []
    for row_lineno, row_line in lines[1:]:
        parts = row_line.split()
        if parts[0] != "simplex":
            raise ParseError("line %d: expected 'simplex v0 v1 ...'"
                             % row_lineno)
        simplex = _int_tokens(parts[1:], row_lineno, "vertex")
        if not simplex:
            raise ParseError("line %d: empty simplex" % row_lineno)
        if len(set(simplex)) != len(simplex):
            raise ParseError("line %d: repeated vertex %d in simplex"
                             % (row_lineno, min(v for v in simplex
                                                if simplex.count(v) > 1)))
        maximal.append(tuple(simplex))
    return SimplicialComplex(n, maximal)


def serialize_complex(complex: SimplicialComplex) -> str:
    lines = ["vertices %d" % complex.vertex_count]
    for simplex in sorted(complex.maximal_simplices()):
        lines.append("simplex " + " ".join(str(v) for v in simplex))
    return "\n".join(lines) + "\n"


# -- actions ---------------------------------------------------------------------


def parse_action_text(text, group: FiniteGroup,
                      complex: SimplicialComplex) -> GSimplicialComplex:
    """Parse action lines into a G-complex.  A line is read here for its
    syntax, its element index and any clash with an earlier row of its
    element (the identity's is the identity permutation).  The
    GSimplicialComplex constructor checks that each row is a permutation,
    derives the unlisted elements and proves the action: the listed elements
    together with the identity must generate the group.
    """
    from .complexes import GSimplicialComplex

    rows = [None] * group.order
    rows[group.identity] = tuple(range(complex.vertex_count))
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty action file")
    for lineno, line in lines:
        match = re.fullmatch(r"act\s+(\d+)\s*:\s*(.*)", line)
        if not match:
            raise ParseError(
                "line %d: expected 'act <element-index> : <images>'" % lineno)
        g = _int_token(match.group(1), lineno, "element index")
        if not 0 <= g < group.order:
            raise BadAction("line %d: element index %d out of range"
                            % (lineno, g))
        perm = tuple(_int_tokens(match.group(2).split(), lineno,
                                 "vertex image"))
        if rows[g] not in (None, perm):
            raise BadAction("line %d: conflicting permutations for element %s"
                            % (lineno, group.name_of(g)))
        rows[g] = perm
    return GSimplicialComplex(complex, group, rows)


def serialize_action(gx: GSimplicialComplex) -> str:
    """One ``act`` line per non-identity element.  Parsing them again closes
    the action over a generating subset of these lines and compares every
    other line with that closure (see GSimplicialComplex), so each entry is
    checked against the group table again."""
    lines = []
    for g in range(gx.group.order):
        if g == gx.group.identity:
            continue
        images = " ".join(str(v) for v in gx.vertex_action[g])
        lines.append("act %d : %s" % (g, images))
    if not lines:  # trivial group: record the identity explicitly
        images = " ".join(str(v) for v in gx.vertex_action[gx.group.identity])
        lines.append("act %d : %s" % (gx.group.identity, images))
    return "\n".join(lines) + "\n"


# -- combined documents -----------------------------------------------------------


def split_bundle_text(text):
    """Split a document that may interleave group, complex, and action
    sections into their raw texts.

    A line goes by its first token: ``vertices``/``simplex`` to the complex,
    ``act`` to the action, ``group``, ``table``, ``perm`` or an integer to
    the group.  Returns a dict with keys 'group', 'complex', 'action'
    mapping to text or None.  Each section keeps its lines at their line
    numbers in the document, with every other line blank, so a parse error
    names the line of the document.
    """
    sections = {"group": [], "complex": [], "action": []}
    for lineno, line in _content_lines(text):
        head = line.split(None, 1)[0]
        if head in ("vertices", "simplex"):
            sections["complex"].append((lineno, line))
        elif head == "act":
            sections["action"].append((lineno, line))
        elif head in ("group", "table", "perm") or _is_int(head):
            sections["group"].append((lineno, line))
        else:
            raise ParseError("line %d: unrecognized directive %s"
                             % (lineno, echo(head)))
    return {name: _placed_text(lines) for name, lines in sections.items()}


def _placed_text(lines):
    """Text with each (lineno, line) pair on its line, other lines blank."""
    if not lines:
        return None
    out = [""] * lines[-1][0]
    for lineno, line in lines:
        out[lineno - 1] = line
    return "\n".join(out) + "\n"


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def serialize_bundle(gx: GSimplicialComplex) -> str:
    """One self-contained document: group, complex, and action sections."""
    return ("# group\n" + serialize_group(gx.group)
            + "# complex\n" + serialize_complex(gx.complex)
            + "# action\n" + serialize_action(gx))


def parse_bundle_text(text) -> GSimplicialComplex:
    sections = split_bundle_text(text)
    if sections["group"] is None:
        raise ParseError("bundle document lacks a group section")
    if sections["complex"] is None:
        raise ParseError("bundle document lacks a complex section")
    if sections["action"] is None:
        raise ParseError("bundle document lacks action lines")
    group = parse_group_text(sections["group"])
    complex = parse_complex_text(sections["complex"])
    return parse_action_text(sections["action"], group, complex)


# -- filtrations ----------------------------------------------------------------

# compiled on first use, and then taken from the cache of the re module
_PAIR = r"\(\s*(\d+)\s*,\s*(\d+)\s*\)"


def parse_filtration_text(text):
    """Return a list of steps, each a list of (stratum-id, irrep-id) pairs
    added at that step. Step labels must be 1, 2, 3, ... in order."""
    steps = []
    for lineno, line in _content_lines(text):
        label, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(
                "line %d: expected 'step: (stratum-id, irrep-id) ...'"
                % lineno)
        step_no = _int_token(label.strip(), lineno, "step label")
        if step_no != len(steps) + 1:
            raise ParseError("line %d: step labels must be 1, 2, ... in "
                             "order (got %d)" % (lineno, step_no))
        pairs = [(_int_token(a, lineno, "stratum id"),
                  _int_token(b, lineno, "irrep id"))
                 for a, b in re.findall(_PAIR, rest)]
        leftover = re.sub(_PAIR, "", rest).strip()
        if leftover:
            raise ParseError("line %d: unparsable text %s in step"
                             % (lineno, echo(leftover)))
        if not pairs:
            raise ParseError("line %d: step adds no nodes" % lineno)
        steps.append(pairs)
    if not steps:
        raise ParseError("empty filtration file")
    return steps


def serialize_filtration(steps) -> str:
    lines = []
    for i, pairs in enumerate(steps, start=1):
        body = " ".join("(%d, %d)" % (a, b) for a, b in pairs)
        lines.append("%d: %s" % (i, body))
    return "\n".join(lines) + "\n"
