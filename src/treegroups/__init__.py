"""Group actions on splitting trees, free-subgroup witnesses, weighted
growth entropy, and the systole/volume/rigidity bound calculators."""

__version__ = "0.1.0"

from .words import Word, WordError
from .oracles import (GroupOracle, OracleError, make_cyclic, make_free,
                      make_free_abelian, make_table)
from .splitting import (ElementarityVerdict, HnnNotSupportedError, NormalForm,
                        SpecError, SplittingSpec, classify_elementarity,
                        load_spec, spec_from_dict)
from .tree import (AcylindricityCheck, ElementClass, EllipticElementError,
                   TreeVertex, VertexRegion, act, axis_window, ball,
                   base_vertex, check_acylindricity, classify, fix_diameter_lb,
                   fixed_set, geodesic, neighbors, on_axis, region_diameter,
                   region_distance, t_set, tree_distance, vertex_of)
from .freeness import (CertificationFailure, FreenessWitness, OverlapReport,
                       ProductTranslationReport, WitnessInputError,
                       certify_free_semigroup, certify_rank2_free,
                       overlap_report, same_axis, semigroup_witness,
                       verify_disjoint_tsets, product_translation_length,
                       witness_power_pair, witness_elliptic_hyperbolic,
                       witness_elliptic_pair, witness_hyperbolic_pair,
                       witness_length_bound_holds)
from .growth import (BallCountSeries, EntropyEstimate, WeightedGenSet,
                     analytic_root_estimate, ball_count_free_group,
                     ball_count_free_semigroup, ball_series_free_group,
                     ball_series_free_semigroup, bcg_lower_bound,
                     bcg_objective, entropy_from_counts,
                     free_group_entropy_root, free_group_equation_residual,
                     monotonicity_check, semigroup_entropy_root,
                     semigroup_equation_residual)
from .bounds import (BoundsReport, CaseComparison, build_bounds_report,
                     compare_case_bounds, delta0, free_product_bound,
                     hyperbolic_branch_bound, s0_general, s0_jsj,
                     small_x_auxiliary_holds, threshold_implication_holds,
                     volume_lower_bound)
from .manifolds import (DichotomyError, DichotomyVerdict, JsjGraph,
                        ManifoldDescription, ManifoldError, PieceDescription,
                        SL2Matrix, classify_manifold, is_anosov,
                        load_manifold, manifold_from_dict, sl2_inverse,
                        sl2_mul, sl2_trace, systole_bound_for,
                        twisted_double_check)
