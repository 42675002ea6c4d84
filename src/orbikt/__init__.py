"""Exact invariants of finite group actions on simplicial complexes.

The library computes, in exact arithmetic, the structure constants of the
function-algebra crossed product attached to a finite group acting
simplicially on a finite complex (fiber block decompositions, inclusion
multiplicities, the primitive-ideal specialization poset, open filtrations)
and its K-theoretic invariants (localization summands per conjugacy class,
equivariant Euler characteristics by three independent methods, and integral
K-groups when all singular orbits are isolated vertices).
"""

from .errors import (BadAction, BoundExceeded, InputError,
                     InternalInconsistency, NonConstantStabilizer,
                     NonIntegralMultiplicity, NonIntegralResult, NotAComplex,
                     NotAdmissible, NotAGroup, NotApplicable, NotIsolated,
                     NotOpen, NotRegular, NotSubgroup, OrbiktError,
                     ParseError, RefusalError, UnknownFixture)
from .cyclotomic import Cyclotomic
from .groups import (ConjugacyData, FiniteGroup, Subgroup, commuting_pairs,
                     conjugacy_data, cyclic_group, dihedral_group,
                     group_from_permutations, product_group, trivial_group)
from .characters import (Character, CharacterTable, character_table,
                         conjugate_irrep, induced_character, multiplicity,
                         restrict_character, subgroup_table)
from .complexes import (GSimplicialComplex, IsotropyStratum, OrbitData,
                        QuotientResult, SimplicialComplex,
                        barycentric_subdivide, centralizer_fixed_action,
                        fixed_subcomplex, isotropy_strata,
                        orbits_and_stabilizers, quotient_complex)
from .homology import (ChainComplex, HomologyResult, KRanks, boundary_matrix,
                       euler_characteristic, fraction_free_rank,
                       homology_integral, induced_homology_matrix,
                       invariant_cohomology_dims, k_ranks,
                       smith_invariant_factors)
from .linalg import rational_rank
from .crossed import (FiberDecomposition, FiltrationReport,
                      InclusionMultiplicityMatrix, PrimNode, PrimPoset,
                      aggregate_strata, fiber_decomposition,
                      filtration_report, inclusion_multiplicities, ix_nodes,
                      prim_nodes, specialization)
from .ktheory import (BCDecomposition, CountIdentity, EulerQuotientCheck,
                      InvariantsCheck, IsolatedKResult, bc_cross_check,
                      bc_decomposition, bc_vs_count_identity,
                      equivariant_euler, euler_quotient_check,
                      invariants_check, isolated_k_theory)
from .formats import (parse_action_text, parse_builtin_spec,
                      parse_bundle_text, parse_complex_text,
                      parse_filtration_text, parse_group_text,
                      serialize_action, serialize_bundle, serialize_complex,
                      serialize_filtration, serialize_group,
                      split_bundle_text)
from .fixtures import FIXTURE_NAMES, circle_complex, fixture, torus_complex

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
