"""Renaming group elements and vertices must not change any label-free
invariant of a command's answer.

The relabeled inputs come from ``relabel_action`` and ``torus_action`` in
bench/inputs.py (the ``inputs`` fixture).  Seed 0 renames nothing.
"""

import json
from collections import Counter

import pytest

from orbikt import (NotIsolated, bc_decomposition, conjugacy_data, fixture,
                    homology_integral, isolated_k_theory, quotient_complex)
from orbikt.cli import main
from orbikt.fixtures import FIXTURE_NAMES
from orbikt.formats import serialize_bundle
from transfer_oracle import invariant_cohomology_dims

SEEDS = (0, 1, 2, 3)

# (nodes, relation pairs, ix nodes) of the unrenamed tori.
PRIM_COUNTS = {
    ("d4", 4): (57, 168, 33),
    ("d4", 6): (99, 298, 67),
    ("z4", 4): (57, 176, 50),
    ("z4", 6): (117, 356, 110),
}

# (nodes, relation pairs, ix nodes) of the aggregated poset, at every grid.
AGGREGATE_COUNTS = {"d4": (21, 52, 7), "z4": (11, 10, 4)}


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


def _bc_summary(payload):
    """The totals and the sorted per-class ranks; class labels are
    dropped."""
    return payload["totals"], sorted((row["even"], row["odd"])
                                     for row in payload["per_class"])


def _ktheory_summary(payload):
    """The K-groups, the totals and the sorted per-class ranks; class and
    orbit labels are dropped."""
    groups = {key: payload[key] for key in
              ("k0", "k1", "quotient_k0", "quotient_k1")}
    return groups, _bc_summary(payload)


def _runs(inputs, command, kind, grid, tmp_path, capsys):
    """(exit status, stdout, stderr) of the json command (a name with its
    options, such as "prim --aggregate") on each relabeled torus."""
    runs = []
    for seed in SEEDS:
        gx = inputs.relabel_action(inputs.torus_action(kind, grid), seed)
        path = tmp_path / ("seed%d.txt" % seed)
        path.write_text(serialize_bundle(gx))
        code = main([*command.split(), "--complex", str(path), "--format",
                     "json"])
        runs.append((code, *capsys.readouterr()))
    return runs


def _payloads(inputs, command, kind, grid, tmp_path, capsys):
    """The json payload of the command on each relabeled torus."""
    payloads = []
    for code, out, err in _runs(inputs, command, kind, grid, tmp_path,
                                capsys):
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
def test_aggregated_prim_is_label_free(inputs, kind, grid, tmp_path,
                                       capsys):
    """Stabilizers along a stratum are conjugate but, after relabeling, not
    equal; the aggregation matches their irreps along the poset."""
    summaries = [_prim_summary(payload) for payload in
                 _payloads(inputs, "prim --aggregate", kind, grid,
                           tmp_path, capsys)]
    assert summaries[0][0] == AGGREGATE_COUNTS[kind]
    for seed, summary in zip(SEEDS, summaries):
        assert summary == summaries[0], seed


@pytest.mark.parametrize("command", ("quotient", "betti"))
@pytest.mark.parametrize("kind, grid", sorted(PRIM_COUNTS))
def test_homology_payloads_are_label_free(inputs, command, kind, grid,
                                          tmp_path, capsys):
    payloads = _payloads(inputs, command, kind, grid, tmp_path, capsys)
    for seed, payload in zip(SEEDS, payloads):
        assert payload == payloads[0], seed


@pytest.mark.parametrize("kind, grid", sorted(PRIM_COUNTS))
def test_bc_is_label_free(inputs, kind, grid, tmp_path, capsys):
    summaries = [_bc_summary(payload) for payload in
                 _payloads(inputs, "bc", kind, grid, tmp_path, capsys)]
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


@pytest.mark.parametrize("grid", (4, 6))
def test_ktheory_is_label_free(inputs, grid, tmp_path, capsys):
    summaries = [_ktheory_summary(payload) for payload in
                 _payloads(inputs, "ktheory", "z4", grid, tmp_path, capsys)]
    if grid == 4:  # seed 0 is the z4-torus fixture
        assert summaries[0][0]["k0"] == {"rank": 9, "torsion": []}
    for seed, summary in zip(SEEDS, summaries):
        assert summary == summaries[0], seed


@pytest.mark.parametrize("grid", (4, 6))
def test_ktheory_refuses_every_relabeled_dihedral_torus(inputs, grid,
                                                        tmp_path, capsys):
    for seed, (code, out, err) in enumerate(
            _runs(inputs, "ktheory", "d4", grid, tmp_path, capsys)):
        assert (code, out) == (2, ""), seed
        assert err.startswith("orbikt: NotIsolated: "), seed
        assert err.count("\n") == 1, seed


@pytest.mark.parametrize("grid", [4, 6])
def test_invariant_cohomology_of_relabeled_dihedral_tori(inputs, grid):
    """D4 reverses the orientation of the torus and fixes no class of
    H_1, so only H_0 is invariant, whatever the labels."""
    for seed in SEEDS:
        gx = inputs.relabel_action(inputs.torus_action("d4", grid), seed)
        assert invariant_cohomology_dims(gx) == (1, 0, 0), seed


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_isolated_k_theory_is_label_free(inputs, name):
    """In process the relabeled groups keep their labels, so the identity
    is not class 0 for some seeds (it is class 1 of Z2 at seeds 1-3)."""
    outcomes = []
    for seed in SEEDS:
        gx = inputs.relabel_action(fixture(name), seed)
        try:
            res = isolated_k_theory(gx)
        except NotIsolated:
            outcomes.append("NotIsolated")
            continue
        outcomes.append((res.k0, res.k1, res.quotient_k0, res.quotient_k1,
                         res.decomposition.totals))
    for seed, outcome in zip(SEEDS, outcomes):
        assert outcome == outcomes[0], seed


def _identity_row_cases():
    cases = [pytest.param(None, name, id=name) for name in FIXTURE_NAMES]
    cases += [pytest.param((kind, grid, seed), None,
                           id="%s-%d-seed%d" % (kind, grid, seed))
              for kind in ("z4", "d4") for grid in (4, 6) for seed in SEEDS]
    return cases


@pytest.mark.parametrize("torus, name", _identity_row_cases())
def test_identity_row_is_the_plain_quotient(inputs, torus, name):
    """isolated_k_theory reads H_*(X/G) from the identity row of the
    decomposition; that row must be the homology of quotient_complex(gx),
    found by the identity's class index wherever relabeling sorts it."""
    if torus is None:
        gx = fixture(name)
    else:
        kind, grid, seed = torus
        gx = inputs.relabel_action(inputs.torus_action(kind, grid), seed)
    identity_class = conjugacy_data(gx.group).class_of[gx.group.identity]

    row = bc_decomposition(gx).per_class[identity_class][2]
    assert row == homology_integral(quotient_complex(gx).complex)
