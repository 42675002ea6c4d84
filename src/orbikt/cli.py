"""Command-line front end.

One batch run per invocation: inputs are resolved (fixture name, or group and
complex files), the requested command dispatches to a library operation, and
the result is printed as an aligned table or as a single json document with
top-level keys ``meta``, ``payload``, ``flags``.  The json output is
byte-identical across runs for identical inputs (sorted keys, canonical
integers, no timestamps).

Exit status: 0 on success, 1 on input errors, 2 when a mathematical
precondition of the requested computation fails (refusals such as
NotIsolated, NotApplicable, NotOpen).
"""

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

# Each command imports the library functions it calls when it runs, so one
# call loads only the modules its command needs.
from .errors import BadAction, BoundExceeded, OrbiktError, ParseError
from .fixtures import FIXTURE_NAMES, fixture as build_fixture
from .formats import (parse_action_text, parse_builtin_spec,
                      parse_complex_text, parse_filtration_text,
                      parse_group_text, serialize_bundle, split_bundle_text)

FORMAT_VERSION = 1

# Published values that the implementation knowingly contradicts; the
# ktheory command flags the disagreement instead of silently differing.
PUBLISHED_DISCREPANCIES = {
    "z4-torus": {"example": "ex-sphere", "published_k0_rank": 8},
}


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
    common.add_argument("--fixture", choices=FIXTURE_NAMES, metavar="NAME",
                        help="built-in example: one of %s" %
                             ", ".join(FIXTURE_NAMES))
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


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError:
        raise ParseError("cannot read %s: not UTF-8 text" % path)


def _load_group(source, max_order):
    if source.startswith("builtin:"):
        return parse_builtin_spec(source[len("builtin:"):], max_order)
    return parse_group_text(_read_file(source))


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
        gx = build_fixture(name)
        _check_order(gx.group, args)
        return Inputs(gx.group, gx.complex, gx, name)

    group = _load_group(args.group, args.max_order) if args.group else None
    complex = None
    action_text = None
    if args.complex_file:
        sections = split_bundle_text(_read_file(args.complex_file))
        if sections["complex"] is None:
            raise ParseError("%s contains no complex section"
                             % args.complex_file)
        complex = parse_complex_text(sections["complex"])
        action_text = sections["action"]
        if sections["group"] is not None:
            if group is not None:
                raise ParseError("group given both via --group and inside "
                                 "the complex file")
            group = parse_group_text(sections["group"])
    if group is not None:
        _check_order(group, args)
    gx = None
    if action_text is not None:
        if group is None:
            raise ParseError("action lines need a group (--group or an "
                             "embedded group section)")
        gx = parse_action_text(action_text, group, complex)
    return Inputs(group, complex, gx)


def _check_order(group, args):
    if args.max_order is not None and group.order > args.max_order:
        raise BoundExceeded("group order %d exceeds --max-order %d"
                            % (group.order, args.max_order))


# -- command payloads -----------------------------------------------------------


def _homology_payload(complex):
    from .homology import euler_characteristic, homology_integral

    hom = homology_integral(complex)
    return {
        "f_vector": list(complex.f_vector()),
        "betti": list(hom.betti),
        "torsion": [list(t) for t in hom.torsion],
        "euler": euler_characteristic(complex),
    }


def _cmd_group(inputs, args):
    from .characters import character_table
    from .groups import conjugacy_data

    group = inputs.require_group()
    cd = conjugacy_data(group)
    table = character_table(group)
    classes = [{"index": i, "rep": group.name_of(rep), "size": len(members)}
               for i, (rep, members) in enumerate(zip(cd.reps, cd.classes))]
    # Table entries are shared objects (one per distinct value), so each is
    # formatted once; the table keeps them alive, so their ids stay unique.
    text = {}

    def value_text(v):
        key = id(v)
        if key not in text:
            text[key] = str(v)
        return text[key]

    irreps = [{"id": rid, "degree": d, "values": list(map(value_text, values))}
              for rid, d, values in table.irreps]
    payload = {
        "order": group.order,
        "exponent": group.exponent(),
        "abelian": group.is_abelian,
        "classes": classes,
        "irreps": irreps,
        "conductor": table.conductor,
    }
    return payload, []


def _cmd_complex(inputs, args):
    from .homology import euler_characteristic

    complex = inputs.require_complex()
    payload = {
        "vertices": complex.vertex_count,
        "dimension": complex.dimension,
        "f_vector": list(complex.f_vector()),
        "euler": euler_characteristic(complex),
        "maximal_simplices": len(complex.maximal_simplices()),
    }
    return payload, []


def _cmd_orbits(inputs, args):
    from .complexes import orbits_and_stabilizers

    gx = inputs.require_action()
    od = orbits_and_stabilizers(gx)
    group = gx.group
    rows = []
    for i, (rep, members, stab, _tr) in enumerate(od.orbits):
        rows.append({
            "id": i,
            "dim": len(rep) - 1,
            "rep": list(rep),
            "size": len(members),
            "stabilizer_order": stab.order,
            "stabilizer": [group.name_of(g) for g in stab.elements],
        })
    return {"orbits": rows, "orbit_count": len(rows)}, []


def _cmd_fixed(inputs, args):
    from .complexes import fixed_subcomplex

    gx = inputs.require_action()
    group = gx.group
    elements = [group.element_index(tok) for tok in args.elements]
    fixed = fixed_subcomplex(gx, elements)
    payload = {"elements": [group.name_of(g) for g in elements]}
    payload.update(_homology_payload(fixed.complex))
    payload["vertex_embedding"] = list(fixed.vertex_embedding)
    return payload, []


def _cmd_quotient(inputs, args):
    from .complexes import quotient_complex

    gx = inputs.require_action()
    quotient = quotient_complex(gx, allow_subdivide=not args.no_subdivide)
    payload = {"subdivisions": quotient.subdivisions}
    payload.update(_homology_payload(quotient.complex))
    return payload, []


def _cmd_betti(inputs, args):
    return _homology_payload(inputs.require_complex()), []


def _cmd_euler(inputs, args):
    from .ktheory import equivariant_euler, euler_quotient_check

    gx = inputs.require_action()
    flags = []
    if args.method == "quotient-check":
        check = euler_quotient_check(gx)
        payload = {
            "method": args.method,
            "quotient_euler": check.lhs,
            "class_average": str(check.rhs),
            "equal": check.equal,
            "integral": check.integral,
        }
        if not check.integral:
            flags.append({"type": "non-integral-average",
                          "value": str(check.rhs)})
        return payload, flags
    method = {"bc": "bc", "pairs": "commuting_pairs",
              "isolated": "isolated"}[args.method]
    value = equivariant_euler(gx, method)
    return {"method": args.method, "value": value}, flags


def _cmd_fiber(inputs, args):
    from .crossed import fiber_decomposition

    group = inputs.require_group()
    gens = [group.element_index(tok) for tok in args.generators]
    sub = group.subgroup(gens)
    decomp = fiber_decomposition(group, sub)
    blocks = [{"irrep": rid, "dimension": dim, "multiplicity": mult}
              for rid, dim, mult in decomp.blocks]
    payload = {
        "generators": [group.name_of(g) for g in gens],
        "stabilizer_order": sub.order,
        "stabilizer": [group.name_of(g) for g in sub.elements],
        "index": group.order // sub.order,
        "blocks": blocks,
    }
    return payload, []


def _prim_poset(gx, aggregate):
    from .crossed import aggregate_strata, specialization

    poset = specialization(gx)
    if aggregate:
        poset = aggregate_strata(poset, gx)
    return poset


def _cmd_prim(inputs, args):
    from .crossed import ix_nodes

    gx = inputs.require_action()
    poset = _prim_poset(gx, args.aggregate)
    site = "stratum" if args.aggregate else "orbit"
    nodes = []
    for i, node in enumerate(poset.nodes):
        nodes.append({
            "index": i,
            site: node.orbit_id,
            "irrep": node.irrep_id,
            "stabilizer_order": poset.stabilizer_orders[i],
            "degree": poset.irrep_degrees[i],
        })
    payload = {
        "aggregated": bool(args.aggregate),
        "nodes": nodes,
        "relation": [[a, b] for a, b in poset.relation_pairs()],
        "ix": ix_nodes(poset),
    }
    return payload, []


def _cmd_filtration(inputs, args):
    from .crossed import filtration_report

    gx = inputs.require_action()
    steps = parse_filtration_text(_read_file(args.file))
    poset = _prim_poset(gx, aggregate=True)
    report = filtration_report(poset, gx, steps)
    out_steps = []
    for k, detail in enumerate(report.steps):
        out_steps.append({
            "step": k + 1,
            "added": [list(key) for key, _d, _b in detail],
            "count": report.step_counts[k],
            "cumulative": report.cumulative_counts[k],
            "blocks": [{"node": list(key), "degree": d, "block_dimension": b}
                       for key, d, b in detail],
        })
    payload = {
        "valid": True,
        "steps": out_steps,
        "node_total": report.cumulative_counts[-1],
    }
    return payload, []


def _bc_payload(decomp, group):
    rows = enumerate(decomp.ranks_by_class())
    per_class = [{"class": idx, "rep": group.name_of(rep), "even": even,
                  "odd": odd} for idx, (rep, even, odd) in rows]
    return {
        "per_class": per_class,
        "totals": {"even": decomp.totals.even, "odd": decomp.totals.odd},
    }


def _cmd_bc(inputs, args):
    from .ktheory import bc_decomposition

    gx = inputs.require_action()
    decomp = bc_decomposition(gx)
    return _bc_payload(decomp, gx.group), []


def _cmd_ktheory(inputs, args):
    from .complexes import orbits_and_stabilizers
    from .ktheory import isolated_k_theory

    gx = inputs.require_action()
    result = isolated_k_theory(gx)
    group = gx.group
    od = orbits_and_stabilizers(gx)

    def k_group(pair):
        rank, torsion = pair
        return {"rank": rank,
                "torsion": None if torsion is None else list(torsion)}

    payload = _bc_payload(result.decomposition, group)
    payload.update({
        "k0": k_group(result.k0),
        "k1": k_group(result.k1),
        "quotient_k0": k_group(result.quotient_k0),
        "quotient_k1": k_group(result.quotient_k1),
        "boundary_status": result.boundary_status,
        "dimension_capped": result.dimension_capped,
        "singular_orbits": [
            {"orbit": i, "rep": list(od.rep(i)),
             "stabilizer": [group.name_of(g)
                            for g in od.stabilizer(i).elements],
             "extra_rank": extra}
            for i, _stab, extra in result.singular_orbits
        ],
        "torsion_bounds": [{"orbit": i, "bound": bound}
                           for i, bound in result.torsion_bounds],
    })
    flags = []
    known = PUBLISHED_DISCREPANCIES.get(inputs.fixture_name)
    if known is not None and known["published_k0_rank"] != result.k0[0]:
        flags.append({
            "type": "paper-discrepancy",
            "example": known["example"],
            "published_k0_rank": known["published_k0_rank"],
            "computed_k0_rank": result.k0[0],
        })
    return payload, flags


def _cmd_identity_check(inputs, args):
    from .ktheory import bc_vs_count_identity

    gx = inputs.require_action()
    identity = bc_vs_count_identity(gx)
    payload = {"vertex_count_sum": identity.lhs,
               "euler_difference": identity.rhs,
               "equal": identity.lhs == identity.rhs}
    return payload, []


def _cmd_fixture(inputs, args):
    gx = inputs.gx
    if args.emit:
        return {"_raw": serialize_bundle(gx)}, []
    payload = {
        "name": inputs.fixture_name,
        "group_order": gx.group.order,
        "f_vector": list(gx.complex.f_vector()),
        "dimension": gx.complex.dimension,
        "admissible": gx.is_admissible(),
    }
    return payload, []


# command -> (handler, help, its own arguments as (names, options) pairs),
# in help order
_COMMANDS = {
    "group": (_cmd_group, "conjugacy classes and character table", ()),
    "complex": (_cmd_complex, "face counts and Euler characteristic", ()),
    "orbits": (_cmd_orbits, "simplex orbits with stabilizers", ()),
    "fixed": (_cmd_fixed, "fixed-point subcomplex of the listed elements",
              [(["elements"], dict(nargs="+", metavar="ELT",
                                   help="group elements by name or index"))]),
    # the one command that builds the simplicial quotient sd(X)/G
    "quotient": (_cmd_quotient, "orbit space as a simplicial complex",
                 [(["--no-subdivide"], dict(
                     action="store_true",
                     help="forbid automatic barycentric subdivision "
                          "when forming quotients"))]),
    "betti": (_cmd_betti, "integral homology of the complex", ()),
    "euler": (_cmd_euler, "equivariant Euler characteristic",
              [(["--method"], dict(default="bc", choices=(
                  "bc", "pairs", "isolated", "quotient-check")))]),
    "fiber": (_cmd_fiber, "fiber blocks of the crossed product over a "
                          "point with the given stabilizer",
              [(["generators"], dict(
                  nargs="*", metavar="ELT",
                  help="stabilizer generators by name or index "
                       "(none = trivial subgroup)"))]),
    "prim": (_cmd_prim, "primitive-ideal specialization poset",
             [(["--aggregate"], dict(
                 action="store_true",
                 help="merge nodes along isotropy strata"))]),
    "filtration": (_cmd_filtration, "validate an increasing open filtration",
                   [(["file"], dict(
                       metavar="FILE",
                       help="one line per step: "
                            "'k: (stratum-id, irrep-id) ...'"))]),
    "bc": (_cmd_bc, "localization summands by conjugacy class", ()),
    "ktheory": (_cmd_ktheory,
                "integral K-groups in the isolated-orbit regime", ()),
    "identity-check": (_cmd_identity_check,
                       "localization totals against the orbit-count "
                       "identity for zero-dimensional fixed sets", ()),
    "fixture": (_cmd_fixture, "describe or export a built-in example",
                [(["name"], dict(choices=FIXTURE_NAMES, metavar="NAME")),
                 (["--emit"], dict(
                     action="store_true",
                     help="print the example as a group/complex/action "
                          "document"))]),
}


# -- rendering -------------------------------------------------------------------


def _meta(inputs, args):
    meta = {"command": args.command, "format_version": FORMAT_VERSION,
            "deterministic": True}
    if inputs.fixture_name:
        meta["fixture"] = inputs.fixture_name
    if inputs.group is not None:
        meta["group_order"] = inputs.group.order
    if inputs.complex is not None:
        meta["f_vector"] = list(inputs.complex.f_vector())
    if getattr(args, "no_subdivide", False):
        meta["subdivision"] = "forbidden"
    return meta


def report_json(meta, payload, flags) -> str:
    """The document as json.dumps(doc, sort_keys=True, indent=2) writes it.

    With an indent, json.dumps runs its pure-Python encoder; _json_text
    writes the same text in far fewer steps, and hands a document holding
    any other value back to json.dumps.
    """
    doc = {"meta": meta, "payload": payload, "flags": flags}
    try:
        return _json_text(doc, "\n")
    except _NotWritten:
        return json.dumps(doc, sort_keys=True, indent=2)


class _NotWritten(Exception):
    """A value _json_text leaves to json.dumps."""


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(value, newline):
    """The indented json of a str, int, bool, None, or a list, tuple or
    str-keyed dict of such values; newline is the line break plus the
    indent of the line the value starts on."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _JSON_CONSTANTS[value]
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        opening, closing = "[", "]"
        texts = (map(int.__repr__, value)
                 if all(type(x) is int for x in value)
                 else [_json_text(x, inner) for x in value])
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        opening, closing = "{", "}"
        keys = sorted(value)
        items = [value[key] for key in keys]
        texts = [key + ": " + text for key, text in zip(
            map(_quote, keys),
            map(int.__repr__, items) if all(type(x) is int for x in items)
            else [_json_text(x, inner) for x in items])]
    else:
        raise _NotWritten
    return opening + inner + ("," + inner).join(texts) + newline + closing


def _table_lines(value, indent=""):
    lines = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append("%s%s:" % (indent, key))
                lines.extend(_table_lines(item, indent + "  "))
            else:
                lines.append("%s%s: %s" % (indent, key, _flat(item)))
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append("%s-" % indent)
                lines.extend(_table_lines(item, indent + "  "))
            else:
                lines.append("%s- %s" % (indent, _flat(item)))
    else:
        lines.append("%s%s" % (indent, _flat(value)))
    return lines


def _is_flat(value):
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    if value is None:
        return "-"
    return str(value)


def _k_text(entry):
    rank, torsion = entry["rank"], entry["torsion"]
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append("Z^%d" % rank)
    for t in torsion or ():
        parts.append("Z/%d" % t)
    return " + ".join(parts) if parts else "0"


def _bc_lines(payload):
    """The per-class and totals lines of a bc payload."""
    lines = ["class [%s]: K0 rank %d, K1 rank %d"
             % (row["rep"], row["even"], row["odd"])
             for row in payload["per_class"]]
    totals = payload["totals"]
    lines.append("totals: K0 rank %d, K1 rank %d"
                 % (totals["even"], totals["odd"]))
    return lines


def render_table(command, payload, flags) -> str:
    lines = []
    if command == "bc":
        lines.extend(_bc_lines(payload))
    elif command == "ktheory":
        lines.append("K0 = %s, K1 = %s"
                     % (_k_text(payload["k0"]), _k_text(payload["k1"])))
        lines.append("boundary map: %s" % payload["boundary_status"])
        lines.extend(_bc_lines(payload))
    elif command == "prim":
        lines.append("nodes: %d" % len(payload["nodes"]))
        lines.extend(_table_lines(payload["nodes"]))
        lines.append("relation pairs: %d" % len(payload["relation"]))
        lines.append("ix: %s (size %d, open)"
                     % (_flat(payload["ix"]), len(payload["ix"])))
    else:
        lines.extend(_table_lines(payload))
    for flag in flags:
        lines.append("flag %s: %s"
                     % (flag.get("type", "?"),
                        ", ".join("%s=%s" % (k, flag[k])
                                  for k in sorted(flag) if k != "type")))
    return "\n".join(lines)


# -- entry point -----------------------------------------------------------------


def run(argv) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    inputs = resolve_inputs(args)
    payload, flags = _COMMANDS[args.command][0](inputs, args)
    if "_raw" in payload:
        sys.stdout.write(payload["_raw"])
        return 0
    if args.format == "json":
        print(report_json(_meta(inputs, args), payload, flags))
    else:
        print(render_table(args.command, payload, flags))
    return 0


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except OrbiktError as exc:
        print("orbikt: %s: %s" % (exc.kind, exc), file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader is gone: let the flush at exit write to devnull instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("orbikt: BrokenPipeError: output closed early", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
