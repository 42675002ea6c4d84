"""The commands on one complex or G-complex: ``complex``, ``orbits``,
``fixed``, ``quotient``, ``betti`` and ``fixture``.  ``orbits`` and
``fixture`` run no homology, so the commands that do import it.

``quotient`` reports the simplicial quotient's subdivisions and face counts,
and reads H_*(X/G) from the orbit cells of X, or of sd(X) when X is not
admissible: no command computes the homology of sd(X)/G."""

from .complexes import (fixed_subcomplex, orbits_and_stabilizers,
                        quotient_complex)
from .errors import InternalInconsistency
from .formats import serialize_bundle


def _homology_payload(complex, hom):
    """Face counts and Euler characteristic of complex with the homology
    hom of its space, checked against each other."""
    from .homology import euler_characteristic

    euler = euler_characteristic(complex)
    if euler != sum((-1) ** k * b for k, b in enumerate(hom.betti)):
        raise InternalInconsistency(
            "Euler characteristic %d of the face counts disagrees with the"
            " Betti numbers %s" % (euler, list(hom.betti)))
    return {
        "f_vector": list(complex.f_vector()),
        "betti": list(hom.betti),
        "torsion": [list(t) for t in hom.torsion],
        "euler": euler,
    }


def cmd_complex(inputs, args):
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


def cmd_orbits(inputs, args):
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


def cmd_fixed(inputs, args):
    from .homology import homology_integral

    gx = inputs.require_action()
    group = gx.group
    elements = [group.element_index(tok) for tok in args.elements]
    fixed = fixed_subcomplex(gx, elements)
    payload = {"elements": [group.name_of(g) for g in elements]}
    payload.update(_homology_payload(fixed.complex,
                                     homology_integral(fixed.complex)))
    payload["vertex_embedding"] = list(fixed.vertex_embedding)
    return payload, []


def cmd_quotient(inputs, args):
    from .homology import quotient_homology

    gx = inputs.require_action()
    quotient = quotient_complex(gx)
    # sd(X) is admissible and |sd X| = |X|, so its orbit cells give X/G too;
    # quotient_complex has built it already when X is not admissible
    model = gx if gx.is_admissible() else gx.subdivision()
    payload = {"subdivisions": quotient.subdivisions}
    payload.update(_homology_payload(quotient.complex,
                                     quotient_homology(model)))
    return payload, []


def cmd_betti(inputs, args):
    from .homology import homology_integral

    complex = inputs.require_complex()
    return _homology_payload(complex, homology_integral(complex)), []


def cmd_fixture(inputs, args):
    gx = inputs.gx
    if args.emit:
        return {"name": inputs.fixture_name,
                "bundle": serialize_bundle(gx)}, []
    payload = {
        "name": inputs.fixture_name,
        "group_order": gx.group.order,
        "f_vector": list(gx.complex.f_vector()),
        "dimension": gx.complex.dimension,
        "admissible": gx.is_admissible(),
    }
    return payload, []
