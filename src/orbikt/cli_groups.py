"""The ``group`` command: conjugacy classes and the character table."""

from .characters import character_table
from .groups import conjugacy_data


def cmd_group(inputs, args):
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
