"""Empirical measures, flows, and the interaction functional."""

import numpy as np
import pytest

from levyfield.errors import ConfigurationError
from levyfield.measures import (
    EmpiricalMeasure,
    MeasureFlow,
    beta_norm,
    interaction_term,
    lyapunov_diagnostic,
)
from levyfield.wasserstein import w_p_exact


def test_points_are_frozen_and_stats_match_numpy():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    mu = EmpiricalMeasure(pts)
    assert len(mu) == 3 and mu.dim == 2
    assert np.allclose(mu.mean(), pts.mean(axis=0))
    with pytest.raises(ValueError):
        mu.points[0, 0] = 99.0


def test_writeable_input_is_copied_and_read_only_float_input_is_kept():
    src = np.array([[1.0], [2.0]])
    mu = EmpiricalMeasure(src)
    src[0, 0] = 99.0
    assert np.array_equal(mu.points, [[1.0], [2.0]])
    frozen = np.array([[1.0], [2.0]])
    frozen.flags.writeable = False
    assert EmpiricalMeasure(frozen).points is frozen
    assert not np.shares_memory(EmpiricalMeasure(frozen.astype(np.float32)).points, frozen)


def test_scalar_input_and_empty_cloud_are_rejected():
    with pytest.raises(ConfigurationError):
        EmpiricalMeasure(np.empty((0, 1)))


def test_beta_norm_is_the_beta_power_mean():
    pts = np.array([[3.0], [-4.0]])
    mu = EmpiricalMeasure(pts)
    for b in (1.0, 1.5, 2.0):
        want = ((3.0**b + 4.0**b) / 2.0) ** (1.0 / b)
        assert abs(mu.beta_norm(b) - want) < 1e-14
        assert beta_norm(mu, b) == mu.beta_norm(b)


def test_beta_norm_monotone_in_beta():
    rng = np.random.default_rng(3)
    for _ in range(50):
        mu = EmpiricalMeasure(rng.standard_normal((16, 2)))
        vals = [mu.beta_norm(b) for b in (1.0, 1.2, 1.5, 1.8, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_interaction_term_lipschitz_in_the_measure():
    # |T(mu1) - T(mu2)| <= lip * W_beta(mu1, mu2) per 1-Lipschitz kernel
    rng = np.random.default_rng(4)
    for beta in (1.5, 2.0):
        for _ in range(40):
            x = rng.standard_normal(2)
            mu1 = EmpiricalMeasure(rng.standard_normal((8, 2)))
            mu2 = EmpiricalMeasure(rng.standard_normal((8, 2)))
            t1 = interaction_term(mu1, x, lambda v: v, beta)
            t2 = interaction_term(mu2, x, lambda v: v, beta)
            assert abs(t1 - t2) <= w_p_exact(mu1, mu2, beta) + 1e-9


def test_interaction_term_accepts_scalar_kernels():
    mu = EmpiricalMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]))
    x = np.zeros(2)
    val = interaction_term(mu, x, lambda v: np.sqrt((v * v).sum(axis=1)), 2.0)
    assert abs(val - 1.0) < 1e-14  # both differences have norm 1


def test_flow_lookup_is_left_piecewise_constant():
    times = np.array([0.0, 0.5, 1.0])
    clouds = [EmpiricalMeasure(np.full((2, 1), float(i))) for i in range(3)]
    flow = MeasureFlow(times, clouds)
    assert flow.at(0.0).points[0, 0] == 0.0
    assert flow.at(0.49).points[0, 0] == 0.0
    assert flow.at(0.5).points[0, 0] == 1.0
    assert flow.at(0.51).points[0, 0] == 1.0
    assert flow.at(1.0).points[0, 0] == 2.0
    assert flow.at(0.75) is clouds[1]
    assert flow.horizon == 1.0 and flow.dim == 1


def test_flow_rejects_pre_grid_lookups_and_bad_grids():
    times = np.array([0.0, 1.0])
    clouds = [EmpiricalMeasure(np.zeros((2, 1)))] * 2
    flow = MeasureFlow(times, clouds)
    with pytest.raises(ConfigurationError):
        flow.at(-0.5)
    assert flow.at(1.5) is clouds[1]  # cadlag extension past the horizon
    with pytest.raises(ConfigurationError):
        MeasureFlow(times, clouds[:1])
    with pytest.raises(ConfigurationError):
        MeasureFlow(np.array([0.0, 0.0]), clouds)


def test_constant_flow_repeats_one_cloud():
    cloud = EmpiricalMeasure(np.array([[1.0], [2.0]]))
    flow = MeasureFlow.constant(np.array([0.0, 0.5, 1.0]), cloud)
    for t in (0.0, 0.5, 1.0):
        assert flow.at(t) is cloud


def test_lyapunov_diagnostic_matches_direct_formula():
    X = np.array([[3.0, 4.0], [0.0, 0.0]])
    want = np.mean((1.0 + np.array([25.0, 0.0])) ** (1.5 / 2.0))
    assert abs(lyapunov_diagnostic(X, 1.5) - want) < 1e-14
