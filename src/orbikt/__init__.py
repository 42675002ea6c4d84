"""Exact invariants of finite group actions on simplicial complexes.

The library computes, in exact arithmetic, the structure constants of the
function-algebra crossed product attached to a finite group acting
simplicially on a finite complex (fiber block decompositions, inclusion
multiplicities, the primitive-ideal specialization poset, open filtrations)
and its K-theoretic invariants (localization summands per conjugacy class,
equivariant Euler characteristics by three independent methods, and integral
K-groups when all singular orbits are isolated vertices).

Results are ``typing.NamedTuple`` records (``HomologyResult``, ``KRanks``,
``QuotientResult``, ``PrimNode``, ...): immutable, and equal to, unpacked
and hashed as the plain tuples of their fields.

Importing the package loads none of its modules: each name below is imported
from its module when it is first used (``from orbikt import X``,
``orbikt.X``, ``import *``), so a caller pays only for the modules it needs.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("BadAction", "BoundExceeded", "InputError",
               "InternalInconsistency", "NonConstantStabilizer",
               "NonIntegralMultiplicity", "NonIntegralResult", "NotAComplex",
               "NotAdmissible", "NotAGroup", "NotApplicable", "NotIsolated",
               "NotOpen", "NotSubgroup", "OrbiktError", "ParseError",
               "RefusalError", "UnknownFixture"),
    "cyclotomic": ("Cyclotomic",),
    "groups": ("ConjugacyData", "FiniteGroup", "Subgroup", "commuting_pairs",
               "conjugacy_data", "cyclic_group", "dihedral_group",
               "group_from_permutations", "product_group", "trivial_group"),
    "characters": ("Character", "CharacterTable", "character_table",
                   "conjugate_irrep", "induced_character", "multiplicity",
                   "restrict_character", "subgroup_table"),
    "complexes": ("GSimplicialComplex", "IsotropyStratum", "OrbitData",
                  "QuotientResult", "SimplicialComplex",
                  "barycentric_subdivide", "centralizer_fixed_action",
                  "fixed_subcomplex", "isotropy_strata",
                  "orbits_and_stabilizers", "quotient_complex"),
    "homology": ("ChainComplex", "HomologyResult", "KRanks",
                 "boundary_matrix", "euler_characteristic",
                 "fraction_free_rank", "homology_integral",
                 "quotient_homology", "smith_invariant_factors"),
    "crossed": ("FiberDecomposition", "FiltrationReport",
                "InclusionMultiplicityMatrix", "PrimNode", "PrimPoset",
                "aggregate_strata", "fiber_decomposition",
                "filtration_report", "inclusion_multiplicities", "ix_nodes",
                "specialization"),
    "ktheory": ("BCDecomposition", "IsolatedKResult", "bc_cross_check",
                "bc_decomposition", "isolated_k_theory"),
    "euler": ("CountIdentity", "EulerQuotientCheck", "bc_vs_count_identity",
              "equivariant_euler", "euler_quotient_check"),
    "formats": ("parse_action_text", "parse_builtin_spec",
                "parse_bundle_text", "parse_complex_text",
                "parse_filtration_text", "parse_group_text",
                "serialize_action", "serialize_bundle", "serialize_complex",
                "serialize_filtration", "serialize_group",
                "split_bundle_text"),
    "fixtures": ("FIXTURE_NAMES", "circle_complex", "fixture",
                 "torus_complex"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    """Import a module, or the module defining an exported name, on first
    use; the name is then bound here and later lookups skip this hook."""
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
