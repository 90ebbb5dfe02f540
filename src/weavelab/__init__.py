"""weavelab: a finite-dimensional laboratory for weaving approximate
Schauder frames and bases in ell_p truncations."""

__version__ = "0.1.0"

from .errors import (DistanceZero, InputError, NotABasis, NotAFrame,
                     NotInvertible, WeavelabError)
from .normed import (L1, L2, LINF, Bound, DenseOperator, Exactness, NormKind,
                     NormedSpace, dual_norm, invert, lp, norming_vector,
                     operator_norm, vector_norm)
from .frames import (EXHAUSTIVE, Basis, ConstantReport, FrameSystem,
                     SearchMode, basis_constant, biorthogonals,
                     check_approximate_frame, equivalence_constants,
                     frame_operator, frame_report, heuristic, square_function,
                     suppression_constant, unconditional_constant)
from .weaving import (IntervalOperatorQuery, WeavePattern, WeaveSearchResult,
                      lower_bound_profile, partial_operator,
                      partial_operator_subset, tail_profile,
                      uniform_bound_profile, weave, worst_weaving)
from .subspaces import (ConditionOutcome, ProjectionPair, RestrictedInverse,
                        SpannedSubspace, UncVerdict, basis_projection,
                        direct_sum_projection, distance_to_span,
                        oblique_projection, projection_pair,
                        restricted_inverse, subspace_distance, unc_conditions)
from .perturb import (BasisPerturbationReport, BoundCertificate,
                      OperatorPerturbationReport, PairPerturbationReport,
                      PerturbationBudget, basis_perturbation_check,
                      operator_perturbation_check, pair_perturbation_check)
from .gallery import (GALLERY_NAMES, GallerySpec, generate, reproduce,
                      verbatim_block_rank)

__all__ = [name for name in dir() if not name.startswith("_")]
