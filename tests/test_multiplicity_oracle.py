"""Integer restriction multiplicities against a Cyclotomic oracle.

``characters.multiplicity`` sums chi(l) conj(psi(l)) over Z in the exponents
of zeta_m.  The oracle below is the route it replaced: every term is a
product of exact Cyclotomic values with Fraction coefficients, lifted to a
common conductor and conjugated as a field element.
"""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from orbikt import (Cyclotomic, characters, crossed, inclusion_multiplicities,
                    parse_builtin_spec, parse_bundle_text)

INPUTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "bench", "inputs.py")


def oracle_multiplicity(chi, psi, sub):
    """(1/|L|) sum_l chi(l) conj(psi(l)), in Cyclotomic arithmetic."""
    m = characters._common_conductor(chi.values[0], psi.values[0])
    acc = Cyclotomic.zero(m)
    for i, l in enumerate(sub.elements):
        acc = acc + (chi.value_on_element(l).lift(m)
                     * psi.value_on_element(i).lift(m).conjugate())
    acc = acc * Fraction(1, sub.order)
    assert acc.is_integer() and acc.integer_value() >= 0, str(acc)
    return acc.integer_value()


def assert_matches_oracle(matrix):
    """Every entry of an inclusion matrix, recomputed by the oracle."""
    inner = matrix.ambient.sub_from_parent(matrix.sub.elements)
    want = tuple(
        tuple(oracle_multiplicity(matrix.col_table.character(tau),
                                  matrix.row_table.character(sigma), inner)
              for tau in range(len(matrix.col_table)))
        for sigma in range(len(matrix.row_table)))
    assert matrix.entries == want, (matrix.sub.elements,
                                    matrix.ambient.elements)


def all_subgroups(group):
    """Every subgroup, as sorted element tuples: joins of one more element
    until no new subgroup appears."""
    found = {(group.identity,)}
    frontier = list(found)
    while frontier:
        grown = []
        for elements in frontier:
            inside = set(elements)
            for g in range(group.order):
                if g not in inside:
                    joined = group.subgroup([*elements, g]).elements
                    if joined not in found:
                        found.add(joined)
                        grown.append(joined)
        frontier = grown
    return sorted(found, key=lambda elements: (len(elements), elements))


@pytest.mark.parametrize("spec, subgroups, pairs", [
    ("dihedral:4", 10, 34),
    ("cyclic:24", 8, 30),  # characters with non-real values
])
def test_every_subgroup_pair_matches_the_oracle(spec, subgroups, pairs):
    group = parse_builtin_spec(spec)
    found = all_subgroups(group)
    assert len(found) == subgroups
    checked = 0
    for big in found:
        for small in found:
            if set(small) <= set(big):
                assert_matches_oracle(inclusion_multiplicities(
                    group, group.subgroup(small), group.subgroup(big)))
                checked += 1
    assert checked == pairs


def test_d4xd4_subgroup_pairs_match_the_oracle():
    """D4 x D4 has 389 subgroups and 6638 pairs L <= K, too many to run
    through the oracle here; 80 seeded pairs K = <up to 4 elements>,
    L = <up to 2 elements of K> reach every order of K from 4 to 64."""
    group = parse_builtin_spec("product:dihedral:4:dihedral:4")
    rng = random.Random(15)
    orders = set()
    for _ in range(80):
        big = group.subgroup(rng.sample(range(group.order),
                                        rng.randint(1, 4)))
        small = group.subgroup(rng.sample(big.elements,
                                          min(big.order, rng.randint(1, 2))))
        matrix = inclusion_multiplicities(group, small, big)
        assert_matches_oracle(matrix)
        orders.add((small.order, big.order))
    assert {big for _, big in orders} >= {4, 8, 16, 32, 64}


def test_benchmark_prim_matrices_match_the_oracle(monkeypatch):
    """The grid-24 D4 torus of the prim benchmark needs 16 restriction
    matrices, one per stabilizer pair over a facet."""
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    gx = parse_bundle_text(inputs.torus_bundle_text("d4", 24, 7))
    matrices = []

    def recorded(*args):
        matrices.append(inclusion_multiplicities(*args))
        return matrices[-1]

    monkeypatch.setattr(crossed, "inclusion_multiplicities", recorded)
    crossed.specialization(gx)
    assert len(matrices) == 16
    for matrix in matrices:
        assert_matches_oracle(matrix)
