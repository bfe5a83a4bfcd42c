"""The public API is pinned: adding or removing a name is a reviewed change."""

import adaptive_em

PUBLIC = {
    "Circle2D",
    "DegenerateDiffusionError",
    "Hyperplane",
    "Hypersurface",
    "MonteCarloReport",
    "PiecewiseDrift1D",
    "PointSet1D",
    "RegressionFit",
    "RootFindError",
    "RunawaySimulationError",
    "SdeProblem",
    "SingularFitError",
    "Transform1D",
    "example_names",
    "fit_rate",
    "get_example",
    "occupation_values",
    "run_experiment",
    "verify_transform",
}


def test_all_is_exactly_the_pinned_names_and_each_resolves():
    assert len(PUBLIC) == 19
    assert len(adaptive_em.__all__) == len(set(adaptive_em.__all__))
    assert set(adaptive_em.__all__) == PUBLIC
    for name in adaptive_em.__all__:
        assert getattr(adaptive_em, name) is not None
