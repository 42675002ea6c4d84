"""The crossed-product commands: ``fiber``, ``prim`` and ``filtration``."""

from .crossed import (aggregate_strata, fiber_decomposition,
                      filtration_report, ix_nodes, specialization)
from .formats import parse_filtration_text, read_file


def cmd_fiber(inputs, args):
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
    poset = specialization(gx)
    if aggregate:
        poset = aggregate_strata(poset, gx)
    return poset


def cmd_prim(inputs, args):
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


def cmd_filtration(inputs, args):
    gx = inputs.require_action()
    steps = parse_filtration_text(read_file(args.file))
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
