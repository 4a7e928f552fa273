"""The package's public surface: what `from coarsebundle import *` binds."""

import coarsebundle

# Every public name, pinned: adding or removing one is a deliberate edit
# here as well as in `__init__.py`.
PUBLIC = {
    "Affine", "AscendingHnnForm", "BaseComplex", "CoarseBundleError",
    "Cochain1", "Cochain2", "DimensionTooSmall", "Disconnected",
    "DriftEstimate", "Edge", "ElementaryType", "EquivalenceVerdict",
    "FiniteBase", "FreenessCertificate", "Gl1Class", "Gl2Subgroup",
    "GluingSpec", "GraphOfGroups", "GrowthClass", "GrowthSeries",
    "HausdorffClass", "HolonomyRep", "IntMatrix", "KernelReport", "Linear",
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
}


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from coarsebundle import *", namespace)
    names = coarsebundle.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert namespace[name] is getattr(coarsebundle, name)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_public_names_are_pinned():
    assert set(coarsebundle.__all__) == PUBLIC
