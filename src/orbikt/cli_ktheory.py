"""The K-theory commands: ``bc``, ``ktheory``, ``euler`` and
``identity-check``.  The Euler and identity routes live in their own
module, which only the last two import."""

from .complexes import orbits_and_stabilizers
from .ktheory import bc_decomposition, isolated_k_theory

# Published values that the implementation knowingly contradicts; the
# ktheory command flags the disagreement instead of silently differing.
PUBLISHED_DISCREPANCIES = {
    "z4-torus": {"example": "ex-sphere", "published_k0_rank": 8},
}


def _bc_payload(decomp, group):
    rows = enumerate(decomp.ranks_by_class())
    per_class = [{"class": idx, "rep": group.name_of(rep), "even": even,
                  "odd": odd} for idx, (rep, even, odd) in rows]
    return {
        "per_class": per_class,
        "totals": {"even": decomp.totals.even, "odd": decomp.totals.odd},
    }


def cmd_bc(inputs, args):
    gx = inputs.require_action()
    decomp = bc_decomposition(gx)
    return _bc_payload(decomp, gx.group), []


def cmd_ktheory(inputs, args):
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


def cmd_euler(inputs, args):
    from .euler import equivariant_euler, euler_quotient_check

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


def cmd_identity_check(inputs, args):
    from .euler import bc_vs_count_identity

    gx = inputs.require_action()
    identity = bc_vs_count_identity(gx)
    payload = {"vertex_count_sum": identity.lhs,
               "euler_difference": identity.rhs,
               "equal": identity.lhs == identity.rhs}
    return payload, []
