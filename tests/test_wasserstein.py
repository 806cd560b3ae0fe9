"""Exact optimal-transport distances: axioms, optimality, agreement."""

import itertools
import math

import numpy as np
import pytest

from levyfield.errors import ConfigurationError
from levyfield.measures import EmpiricalMeasure, MeasureFlow
from levyfield.wasserstein import (
    EXACT_SIZE_CAP,
    _assignment,
    flow_distance,
    w_p_1d,
    w_p_exact,
    w_p_sliced,
)


def _clouds(rng, n, d, scale=1.0):
    return rng.standard_normal((n, d)) * scale, rng.standard_normal((n, d)) * scale


def _perm_minimum(x, y, p):
    n = x.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.linalg.norm(x[i] - y[j]) ** p) for i, j in enumerate(perm))
        best = min(best, cost)
    return (best / n) ** (1.0 / p)


def test_assignment_equals_exhaustive_permutation_minimum():
    rng = np.random.default_rng(10)
    for _ in range(150):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        x, y = _clouds(rng, n, d)
        got = w_p_exact(x, y, p)
        want = _perm_minimum(x, y, p)
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_1d_sorted_coupling_agrees_with_assignment():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        p = float(rng.choice([1.0, 1.3, 2.0]))
        x, y = _clouds(rng, n, 1, scale=3.0)
        assert abs(w_p_1d(x, y, p) - w_p_exact(x, y, p)) < 1e-9


def test_metric_axioms_on_random_clouds():
    rng = np.random.default_rng(12)
    for _ in range(120):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 3))
        x, y = _clouds(rng, n, d)
        z = rng.standard_normal((n, d))
        p = 2.0
        dxy = w_p_exact(x, y, p)
        assert w_p_exact(x, y, p) == w_p_exact(y, x, p)  # symmetry, exactly
        assert w_p_exact(x, x, p) <= 1e-12
        # identity on shuffled copies: same multiset, distance zero
        shuffled = x[rng.permutation(n)]
        assert w_p_exact(x, shuffled, p) <= 1e-12
        assert dxy <= w_p_exact(x, z, p) + w_p_exact(z, y, p) + 1e-9


def test_p_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(80):
        n = int(rng.integers(2, 16))
        x, y = _clouds(rng, n, 2)
        vals = [w_p_exact(x, y, p) for p in (1.0, 1.4, 1.7, 2.0)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_translation_invariance_is_exact_on_dyadic_shifts():
    # dyadic coordinates keep the cost arithmetic exact under translation
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        x = rng.integers(-8, 8, size=(n, 2)) / 8.0
        y = rng.integers(-8, 8, size=(n, 2)) / 8.0
        v = rng.integers(-4, 4, size=2) / 4.0
        assert w_p_exact(x, y, 2.0) == w_p_exact(x + v, y + v, 2.0)


def test_tie_break_prefers_lexicographically_smallest_plan():
    # equidistant cross: every pairing costs the same, pick [0, 1, ...]
    x = np.array([[0.0], [2.0]])
    y = np.array([[1.0], [1.0]])
    assert np.array_equal(_assignment(x, y, 1.0)[1], [0, 1])
    x = np.array([[0.0], [0.0], [0.0]])
    y = np.array([[1.0], [1.0], [1.0]])
    assert np.array_equal(_assignment(x, y, 2.0)[1], [0, 1, 2])
    # unique optimum stays untouched by the tie pass
    x, y = np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]])
    assert w_p_exact(x, y, 1.0) == 0.0 and np.array_equal(_assignment(x, y, 1.0)[1], [1, 0])


def test_tie_break_is_deterministic_across_repeats():
    rng = np.random.default_rng(15)
    grid = rng.integers(-3, 3, size=(6, 1)).astype(float)
    other = rng.integers(-3, 3, size=(6, 1)).astype(float)
    plans = [_assignment(grid, other, 1.0)[1] for _ in range(5)]
    for p in plans[1:]:
        assert np.array_equal(plans[0], p)


def test_size_cap_and_shape_guards():
    big = np.zeros((EXACT_SIZE_CAP + 1, 1))
    with pytest.raises(ConfigurationError):
        w_p_exact(big, big, 2.0)
    with pytest.raises(ConfigurationError):
        w_p_exact(np.zeros((3, 1)), np.zeros((4, 1)), 2.0)
    with pytest.raises(ConfigurationError):
        w_p_exact(np.zeros((3, 1)), np.zeros((3, 2)), 2.0)
    with pytest.raises(ConfigurationError):
        w_p_1d(np.zeros((3, 2)), np.zeros((3, 2)), 2.0)
    with pytest.raises(ConfigurationError):
        w_p_exact(np.zeros((3, 1)), np.zeros((3, 1)), 0.5)


def test_sliced_estimate_matches_exact_in_one_dimension():
    # every projection of a 1d cloud is +-identity, so slicing is exact
    rng = np.random.default_rng(16)
    x, y = _clouds(rng, 32, 1)
    est, se = w_p_sliced(x, y, 2.0, directions=16)
    assert abs(est - w_p_exact(x, y, 2.0)) < 1e-9
    assert se < 1e-9


def test_sliced_lower_bounds_exact_in_higher_dimension():
    # projections contract distances, so each slice is <= the exact W_p
    rng = np.random.default_rng(17)
    x, y = _clouds(rng, 24, 3)
    est, _ = w_p_sliced(x, y, 2.0, directions=64)
    assert est <= w_p_exact(x, y, 2.0) + 1e-9


def test_flow_distance_discounting():
    times = np.array([0.0, 1.0])
    a = [EmpiricalMeasure(np.zeros((2, 1))), EmpiricalMeasure(np.zeros((2, 1)))]
    b = [EmpiricalMeasure(np.zeros((2, 1))), EmpiricalMeasure(np.ones((2, 1)))]
    fa, fb = MeasureFlow(times, a), MeasureFlow(times, b)
    # only the t=1 clouds differ, by exactly 1, discounted by e^{-gamma}
    for gamma in (0.0, 1.0, 5.0):
        assert abs(flow_distance(fa, fb, 2.0, gamma) - math.exp(-gamma)) < 1e-12
    assert flow_distance(fa, fa, 2.0, 1.0) == 0.0


def test_flow_distance_requires_matching_grids():
    a = MeasureFlow(np.array([0.0, 1.0]), [EmpiricalMeasure(np.zeros((2, 1)))] * 2)
    b = MeasureFlow(np.array([0.0, 0.5, 1.0]), [EmpiricalMeasure(np.zeros((2, 1)))] * 3)
    with pytest.raises(ConfigurationError):
        flow_distance(a, b, 2.0, 1.0)
