"""Exact computational toolkit for simplicial complexes.

Constructs complexes, computes face and homology invariants over the
rationals or prime fields, classifies Cohen-Macaulay/Buchsbaum-type
properties, and machine-verifies the lower-bound statements those classes
satisfy at desk scale.
"""

from .complexes import (Complex, ComplexError, FaceNotPresentError,
                        LabelCollisionError, MalformedFaceError, NotPureError,
                        UnknownVertexError, as_face, build)
from .facevectors import (FaceVectors, f_from_h, f_vector, h_from_f,
                          h_prime_vector, h_vector, poly_geq,
                          reduced_euler_characteristic, short_simplicial_h)
from .families import (ConstructionError, Fixture, UnknownFixtureError,
                       connected_sum, cross_polytope, fixture, fixture_names,
                       multi_point_join, multi_point_join_colored, named,
                       prefix_relabel, simplex, simplex_boundary,
                       skeleton_join_sphere, stacked_cross_polytopal_sphere)
from .files import ComplexFile, ComplexFileError, emit, emit_text, parse, parse_text
from .homology import (BettiVector, clear_caches, pair_restriction_surjective,
                       reduced_betti, relative_betti_vector,
                       top_restriction_surjective)
from .linalg import (GF, GF2, GF3, QQ, CoefficientField, InvariantError,
                     Matrix, ShapeError, kernel_basis, rank)
from .properties import (UNKNOWN, Coloring, ColoringError, PropertyReport,
                         Witness, find_balanced_coloring, is_buchsbaum,
                         is_buchsbaum_star, is_cohen_macaulay,
                         is_doubly_buchsbaum, is_homology_manifold,
                         is_m_buchsbaum_star, is_m_cm, rank_selected,
                         revalidate_witness)
from .suites import (CorpusEntry, InfeasibleParameterError, SuiteReport,
                     UnknownSuiteError, corpus, explore_question,
                     random_balanced_complex, random_pure_complex, run_suite,
                     suite_names)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
