"""The commands on one complex or G-complex: ``complex``, ``orbits``,
``fixed``, ``quotient``, ``betti`` and ``fixture``.  ``orbits`` and
``fixture`` run no homology, so the commands that do import it."""

from .complexes import (fixed_subcomplex, orbits_and_stabilizers,
                        quotient_complex)
from .formats import serialize_bundle


def _homology_payload(complex):
    from .homology import euler_characteristic, homology_integral

    hom = homology_integral(complex)
    return {
        "f_vector": list(complex.f_vector()),
        "betti": list(hom.betti),
        "torsion": [list(t) for t in hom.torsion],
        "euler": euler_characteristic(complex),
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
    gx = inputs.require_action()
    group = gx.group
    elements = [group.element_index(tok) for tok in args.elements]
    fixed = fixed_subcomplex(gx, elements)
    payload = {"elements": [group.name_of(g) for g in elements]}
    payload.update(_homology_payload(fixed.complex))
    payload["vertex_embedding"] = list(fixed.vertex_embedding)
    return payload, []


def cmd_quotient(inputs, args):
    gx = inputs.require_action()
    quotient = quotient_complex(gx, allow_subdivide=not args.no_subdivide)
    payload = {"subdivisions": quotient.subdivisions}
    payload.update(_homology_payload(quotient.complex))
    return payload, []


def cmd_betti(inputs, args):
    return _homology_payload(inputs.require_complex()), []


def cmd_fixture(inputs, args):
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
