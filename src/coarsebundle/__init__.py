"""Exact-arithmetic toolkit for coarse invariants of fibered groups.

The package classifies homogeneous graphs of Z^n groups by the dynamics of
their holonomy on the Bass-Serre tree, computes Hausdorff classes of
rational matrix groups, certifies bounded cohomology classes on finite
complexes, and measures desk-scale models of fibered graphs.
"""

from .bass_serre import TreeBall, build_ball, carries_holonomy, halfspace
from .bundle_lab import (Affine, DriftEstimate, FiniteBase, GluingSpec,
                         GrowthClass, GrowthSeries, KernelReport, Linear,
                         Tabulated, TotalSpaceBall, Translation, ball_growth,
                         build_total_space, drift_seminorm, foliation_kernel,
                         growth_class, phi_example_spec)
from .core_algebra import IntMatrix, RatMatrix, gl_distance
from .errors import (CoarseBundleError, DimensionTooSmall, Disconnected,
                     NonBijectiveTabulated, NotCoboundary, NotUnimodular,
                     PositiveCycle, RankMismatch, RankUnsupported,
                     SingularGenerator, SingularInclusion, SingularMatrix,
                     TooFewRadii, WindowTooLarge, ZeroParameter, ZeroValue)
from .graph_of_groups import (AscendingHnnForm, Edge, GraphOfGroups,
                              HolonomyRep, bs, detect_ascending_hnn,
                              from_json_dict, modular_holonomy, semidirect,
                              to_json_dict)
from .linf_cohomology import (BaseComplex, Cochain1, Cochain2, ScanTable,
                              TrivialityVerdict, classes_equivalent_via,
                              coboundary_of_potential, d1, grid_complex,
                              heisenberg_cochain, is_trivial,
                              linear_bound_scan, primitive,
                              solve_coboundary)
from .subgroup_analysis import (ElementaryType, EquivalenceVerdict,
                                FreenessCertificate, Gl1Class, Gl2Subgroup,
                                HausdorffClass, PslIndexResult,
                                ReductionTrace, Sl2Part,
                                classify_psl2z_subgroup, elementary_type,
                                free_injectivity, hausdorff_class,
                                hausdorff_class_gl1, hausdorff_equivalent,
                                invariant_positive_form, orbit_reduce)
from .trichotomy import (QiComparison, TrichotomyEvidence, TrichotomyVerdict,
                         classify, qi_compare)

__version__ = "0.1.0"

__all__ = [
    "Affine", "AscendingHnnForm", "BaseComplex", "Cochain1", "Cochain2",
    "CoarseBundleError", "DimensionTooSmall", "Disconnected", "DriftEstimate",
    "Edge", "ElementaryType", "EquivalenceVerdict", "FiniteBase",
    "FreenessCertificate", "Gl1Class", "Gl2Subgroup", "GluingSpec",
    "GraphOfGroups", "GrowthClass", "GrowthSeries", "HausdorffClass",
    "HolonomyRep", "IntMatrix", "KernelReport", "Linear",
    "NonBijectiveTabulated", "NotCoboundary", "NotUnimodular",
    "PositiveCycle", "PslIndexResult", "QiComparison", "RankMismatch",
    "RankUnsupported", "RatMatrix", "ReductionTrace", "ScanTable",
    "SingularGenerator", "SingularInclusion", "SingularMatrix", "Sl2Part",
    "Tabulated", "TooFewRadii", "TotalSpaceBall", "Translation", "TreeBall",
    "TrichotomyEvidence", "TrichotomyVerdict", "TrivialityVerdict",
    "WindowTooLarge", "ZeroParameter", "ZeroValue", "ball_growth", "bs",
    "build_ball", "build_total_space", "carries_holonomy",
    "classes_equivalent_via", "classify", "classify_psl2z_subgroup",
    "coboundary_of_potential", "d1", "detect_ascending_hnn", "drift_seminorm",
    "elementary_type", "foliation_kernel", "free_injectivity",
    "from_json_dict", "gl_distance", "grid_complex", "growth_class",
    "halfspace", "hausdorff_class", "hausdorff_class_gl1",
    "hausdorff_equivalent", "heisenberg_cochain", "invariant_positive_form",
    "is_trivial", "linear_bound_scan", "modular_holonomy", "orbit_reduce",
    "phi_example_spec", "primitive", "qi_compare", "semidirect",
    "solve_coboundary", "to_json_dict",
]
