"""The aligned table that ``--format table`` prints: one ``key: value``
line per scalar, nested values indented, with summary lines for ``bc``,
``ktheory`` and ``prim``; ``fixture --emit`` prints its bundle as it is."""


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
    """The group, with a null torsion (not determined) said in words."""
    rank, torsion = entry["rank"], entry["torsion"]
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append("Z^%d" % rank)
    for t in torsion or ():
        parts.append("Z/%d" % t)
    text = " + ".join(parts) if parts else "0"
    return text if torsion is not None else text + " (torsion not determined)"


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
    elif command == "fixture" and "bundle" in payload:
        lines.append(payload["bundle"].rstrip("\n"))
    else:
        lines.extend(_table_lines(payload))
    for flag in flags:
        lines.append("flag %s: %s"
                     % (flag.get("type", "?"),
                        ", ".join("%s=%s" % (k, flag[k])
                                  for k in sorted(flag) if k != "type")))
    return "\n".join(lines)
