"""Renaming group elements and vertices must not change any label-free
invariant of a command's answer.

The relabeled inputs come from ``relabel_action`` and ``torus_action`` in
bench/inputs.py, loaded from the file so that the tests and the benchmark
draw the same seeded inputs.  Seed 0 renames nothing.

``prim --aggregate`` is left out: it still refuses seeds >= 1 with
``NonConstantStabilizer``, because it compares the literal stabilizers of
orbit representatives that are only conjugate (ROADMAP item 4).
"""

import importlib.util
import json
import os
from collections import Counter

import pytest

from orbikt.cli import main
from orbikt.formats import serialize_bundle

INPUTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "bench", "inputs.py")

SEEDS = (0, 1, 2, 3)

# (nodes, relation pairs, ix nodes) of the unrenamed tori.
PRIM_COUNTS = {
    ("d4", 4): (57, 168, 33),
    ("d4", 6): (99, 298, 67),
    ("z4", 4): (57, 176, 50),
    ("z4", 6): (117, 356, 110),
}


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _prim_summary(payload):
    """Counts, and the multiset of per-node (stabilizer order, degree,
    up-set size, down-set size, in ix); node and orbit ids are dropped."""
    nodes, relation = payload["nodes"], payload["relation"]
    up = Counter(a for a, _ in relation)
    down = Counter(b for _, b in relation)
    ix = set(payload["ix"])
    shape = sorted((node["stabilizer_order"], node["degree"],
                    1 + up[node["index"]], 1 + down[node["index"]],
                    node["index"] in ix) for node in nodes)
    return (len(nodes), len(relation), len(ix)), shape


def _orbits_summary(payload):
    """The multiset of per-orbit (dim, orbit size, stabilizer order)."""
    return sorted((row["dim"], row["size"], row["stabilizer_order"])
                  for row in payload["orbits"])


def _payloads(inputs, command, kind, grid, tmp_path, capsys):
    """The json payload of the command on each relabeled torus."""
    payloads = []
    for seed in SEEDS:
        gx = inputs.relabel_action(inputs.torus_action(kind, grid), seed)
        path = tmp_path / ("seed%d.txt" % seed)
        path.write_text(serialize_bundle(gx))
        code = main([command, "--complex", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payloads.append(json.loads(out)["payload"])
    return payloads


@pytest.mark.parametrize("kind, grid", sorted(PRIM_COUNTS))
def test_prim_is_label_free(inputs, kind, grid, tmp_path, capsys):
    summaries = [_prim_summary(payload) for payload in
                 _payloads(inputs, "prim", kind, grid, tmp_path, capsys)]
    assert summaries[0][0] == PRIM_COUNTS[kind, grid]
    for seed, summary in zip(SEEDS, summaries):
        assert summary == summaries[0], seed


@pytest.mark.parametrize("kind, grid", sorted(PRIM_COUNTS))
def test_orbits_are_label_free(inputs, kind, grid, tmp_path, capsys):
    summaries = [_orbits_summary(payload) for payload in
                 _payloads(inputs, "orbits", kind, grid, tmp_path, capsys)]
    # every point of the torus lies in one orbit, counted once per dimension
    order = 8 if kind == "d4" else 4
    for dim, count in enumerate((2, 6, 4)):
        assert sum(size for d, size, _ in summaries[0]
                   if d == dim) == count * grid * grid
    assert all(size * stab == order for _, size, stab in summaries[0])
    for seed, summary in zip(SEEDS, summaries):
        assert summary == summaries[0], seed
