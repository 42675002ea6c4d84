"""Run one ``orbikt`` CLI call in this process and record where its time went.

Usage::

    python3 bench/trace_call.py OUT.jsonl CALL_ID [--plain] -- CLI-ARGS...

The CLI's own output goes to stdout unchanged and the exit status is the
CLI's.  Before the call, each callable in ``TIMED`` and ``COUNTED`` is
replaced by a wrapper in every ``orbikt.*`` module namespace that holds it
(and on its class, under every name the class binds it to), so calls between
modules and calls within one module are both caught.  A timed call becomes a
span ``{"id", "parent", "name", "start", "end", "call"}`` kept in memory; a
counted call only increments a counter, because timing every cyclotomic
operation would swamp the run.  When the call returns, OUT.jsonl receives
one line per span, one ``{"counts": ...}`` line and one ``{"main_s": ...}``
line with the in-process time of the call.

With ``--plain`` nothing is wrapped and OUT.jsonl receives only the
``{"main_s": ...}`` line: the untraced in-process time that the tracing
overhead is measured against.  Nothing under ``src/`` is modified.
"""

import functools
import importlib
import json
import os
import pkgutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import orbikt  # noqa: E402

MODULES = {info.name: importlib.import_module("orbikt." + info.name)
           for info in pkgutil.iter_modules(orbikt.__path__)}
NAMESPACES = [orbikt, *MODULES.values()]


def _complex_key(complex):
    return hash((complex.vertex_count, complex.simplices))


def _action_key(gx, *args, **kwargs):
    return {"key": hash((_complex_key(gx.complex), gx.group.mult,
                         gx.vertex_action, args,
                         tuple(sorted(kwargs.items()))))}


def _homology_key(complex):
    return {"key": _complex_key(complex)}


def _matrix_size(matrix):
    return {"entries": len(matrix) * len(matrix[0]) if matrix else 0,
            "nnz": sum(1 for row in matrix for x in row if x)}


# "module.qualname" -> probe giving extra span fields from the arguments
TIMED = {
    "cli.main": None,
    "cli.resolve_inputs": None,
    "cli.report_json": None,
    "formats.parse_group_text": None,
    "formats.parse_complex_text": None,
    "formats.parse_action_text": None,
    "groups.FiniteGroup.__init__": None,
    "groups.conjugacy_data": None,
    "characters.character_table": None,
    "characters.subgroup_table": None,
    "characters.multiplicity": None,
    "characters.conjugate_irrep": None,
    "complexes.SimplicialComplex.__init__": None,
    "complexes.SimplicialComplex.maximal_simplices": None,
    "complexes.GSimplicialComplex.__init__": None,
    "complexes.GSimplicialComplex.admissibility_witness": None,
    "complexes.barycentric_subdivide": None,
    "complexes.orbits_and_stabilizers": None,
    "complexes.centralizer_fixed_action": None,
    "complexes.quotient_complex": _action_key,
    "homology.ChainComplex.__init__": None,
    "homology.homology_integral": _homology_key,
    "homology.smith_invariant_factors": _matrix_size,
    "homology.fraction_free_rank": None,
    "crossed.specialization": None,
    "crossed.PrimPoset.__init__": None,
    "crossed.ix_nodes": None,
    "ktheory.bc_decomposition": None,
    "ktheory.isolated_k_theory": None,
    "ktheory.bc_cross_check": None,
}

COUNTED = ("cyclotomic.Cyclotomic.__mul__", "cyclotomic.Cyclotomic.__add__")


class Recorder:
    """Spans and counters of one traced call, held in memory."""

    def __init__(self, call_id):
        self.call_id = call_id
        self.spans = []
        self.stack = []
        self.counts = {}

    def timed(self, name, fn, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name, "call": self.call_id}
            if probe is not None:
                span.update(probe(*args, **kwargs))
            spans.append(span)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def lines(self):
        for span in self.spans:
            yield span
        yield {"counts": self.counts, "call": self.call_id}


def _lookup(name):
    """(owner, original): the class or module defining the callable."""
    module, *path = name.split(".")
    owner = MODULES[module]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, getattr(owner, path[-1])


def _rebind(name, wrapper):
    owner, original = _lookup(name)
    namespaces = [owner] if isinstance(owner, type) else NAMESPACES
    bound = 0
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapper)
                bound += 1
    if not bound:
        raise SystemExit("trace_call: %s is not bound anywhere" % name)


def install(recorder):
    for name, probe in TIMED.items():
        _rebind(name, recorder.timed(name, _lookup(name)[1], probe))
    for name in COUNTED:
        _rebind(name, recorder.counted(name, _lookup(name)[1]))


def main(argv):
    if len(argv) < 3 or "--" not in argv:
        raise SystemExit(__doc__)
    sep = argv.index("--")
    out_path, call_id, *flags = argv[:sep]
    cli_args = argv[sep + 1:]
    if flags not in ([], ["--plain"]):
        raise SystemExit(__doc__)
    plain = bool(flags)
    recorder = None
    if not plain:
        recorder = Recorder(call_id)
        install(recorder)
    cli = MODULES["cli"]
    start = time.perf_counter()
    status = cli.main(cli_args)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as out:
        if recorder is not None:
            for line in recorder.lines():
                out.write(json.dumps(line) + "\n")
        out.write(json.dumps({"main_s": main_s, "call": call_id}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
