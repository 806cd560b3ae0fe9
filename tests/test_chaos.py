"""Rate function, slope fitting, and the chaos estimators."""

import math

import numpy as np
import pytest

from levyfield.chaos import (
    MomentReport,
    PoCConfig,
    fit_loglog_slope,
    phi_rate,
    reference_fixed_point,
    run_moment_experiment,
    run_strong_poc,
    run_weak_poc,
    strong_poc_replication,
    weak_poc_replication,
)
from levyfield.coefficients import build_cubic_interaction, build_frozen, build_linear_meanfield
from levyfield.errors import ConfigurationError
from levyfield.initial import normal_initial, uniform_box_initial
from levyfield.noise import no_noise
from levyfield.solver import SolverConfig, TimeGrid, _draw_tape, _simulate_system, picard_fixed_point
from levyfield.streams import EXP_REFERENCE, StreamContext

from levyfield_testkit import make_levy, small_only_levy


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------


def _phi_reread(p, beta, d):
    # independent rendering of the two-branch exponent
    moment = -(1.0 - p / beta)
    if d <= 2:
        return moment
    if d == 3:
        if p >= 1.5:
            return moment
        return moment if beta < 3.0 * p / (3.0 - p) else -p / 3.0
    return moment if beta < d * p / (d - p) else -p / d


def test_phi_rate_matches_independent_reread_on_a_grid():
    ps = np.linspace(1.0, 1.95, 12)
    bs = np.linspace(1.05, 2.0, 12)
    for d in range(1, 7):
        for p in ps:
            for beta in bs:
                if p < beta:
                    assert phi_rate(p, beta, d) == _phi_reread(p, beta, d)


def test_phi_rate_boundary_point_agrees_across_branches():
    # at d=4, p=1 the switch sits at beta=4/3 where both branches give -1/4
    assert phi_rate(1.0, 4.0 / 3.0, 4) == -0.25
    assert -(1.0 - 1.0 / (4.0 / 3.0)) == -0.25


def test_phi_rate_low_dimensions_always_use_the_moment_branch():
    for d in (1, 2):
        for p, beta in [(1.0, 1.5), (1.2, 2.0), (1.9, 2.0)]:
            assert phi_rate(p, beta, d) == -(1.0 - p / beta)


def test_phi_rate_monotone_nonincreasing_in_beta():
    for d in (1, 3, 5):
        for p in (1.0, 1.3):
            vals = [phi_rate(p, b, d) for b in np.linspace(p + 0.05, 2.0, 30)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_phi_rate_input_guards():
    for bad in [(0.5, 2.0, 1), (1.0, 2.5, 1), (1.5, 1.2, 1), (1.0, 2.0, 0)]:
        with pytest.raises(ConfigurationError):
            phi_rate(*bad)
    with pytest.raises(ConfigurationError):
        phi_rate(1.0, 2.0, 2.5)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_slope_fit_exact_on_power_laws():
    n = np.array([64, 128, 256, 512, 1024])
    for target in (-0.5, -0.25, -1.0):
        slope, se = fit_loglog_slope(n, 3.7 * n.astype(float) ** target)
        assert abs(slope - target) < 1e-12
        assert se < 1e-10


def test_slope_fit_invariant_to_common_rescaling():
    n = np.array([64, 128, 256, 512])
    y = np.exp(np.array([0.1, -0.4, -0.9, -1.2]))
    s1, _ = fit_loglog_slope(n, y)
    s2, _ = fit_loglog_slope(n, 123.456 * y)
    assert abs(s1 - s2) < 1e-12


def test_slope_fit_weights_downweight_noisy_points():
    n = np.array([64, 128, 256, 512])
    y = 1.0 * n.astype(float) ** -0.5
    y_noisy = y.copy()
    y_noisy[-1] *= 3.0  # corrupt the last point
    ses = np.array([1e-6, 1e-6, 1e-6, 1e6])  # declare it worthless
    slope, _ = fit_loglog_slope(n, y_noisy, ses)
    assert abs(slope + 0.5) < 1e-3


def test_slope_fit_guards():
    with pytest.raises(ConfigurationError):
        fit_loglog_slope([64, 128], [1.0, 0.5])
    with pytest.raises(ConfigurationError):
        fit_loglog_slope([64, 32, 128], [1.0, 0.5, 0.2])
    with pytest.raises(ConfigurationError):
        fit_loglog_slope([64, 128, 256], [1.0, -0.5, 0.2])


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------


def test_poc_config_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        PoCConfig(p=0.5, n_grid=[8], replications=0, q1=0.9, q2=0.5, slack=-1.0)
    assert len(err.value.violations) >= 4


def test_poc_config_check_against_model():
    levy = small_only_levy()
    ok = build_cubic_interaction(levy, dim=1, beta=2.0)
    cfg = PoCConfig(p=1.0, n_grid=[4, 8, 16], replications=2)
    cfg.check_against(ok)  # no error
    with pytest.raises(ConfigurationError):
        cfg.check_against(build_cubic_interaction(levy, dim=1, beta=2.0, measure_in_f=True))
    with pytest.raises(ConfigurationError):
        PoCConfig(p=1.0, n_grid=[4, 8, 16], replications=2).check_against(
            build_linear_meanfield(levy, dim=1, beta=1.0)
        )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

GRID = TimeGrid.regular(1.0, 0.05)
QUICK = SolverConfig(paths=64, tol=1e-2, max_iter=15)
SMALL_POC = PoCConfig(p=1.0, n_grid=[8, 16, 32], replications=3, reference_paths=128)


def _replicated(replicate, coeffs, levy, poc, seed):
    """Reference fixed point plus one replication map per replica, as the runner computes them."""
    ref = reference_fixed_point(coeffs, normal_initial(1), levy, GRID, QUICK, poc, seed)
    reps = [
        replicate(coeffs, levy, GRID, normal_initial(1), poc, QUICK, seed, r, ref.flow)
        for r in range(poc.replications)
    ]
    return ref, reps


def test_reference_is_the_crn_picard_limit_on_the_reference_block():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    grid = TimeGrid.regular(1.0, 0.01)  # the explicit cubic step diverges across big jumps at 0.05
    poc = PoCConfig(p=1.0, n_grid=[8, 16, 24], replications=2)
    ref = reference_fixed_point(coeffs, normal_initial(1), levy, grid, QUICK, poc, 12)
    ctx = StreamContext(seed=12, experiment=EXP_REFERENCE, replica=0)
    exact = SolverConfig(paths=96, gamma=0.0, tol=1e-300, max_iter=grid.n_steps + 1)
    limit = picard_fixed_point(coeffs, normal_initial(1), levy, grid, exact, ctx)
    tape = _draw_tape(coeffs, levy, grid, ctx, normal_initial(1), 96)
    assert tape.big.row.size > 0
    [inter] = _simulate_system(coeffs, levy, grid, [(tape, None)], QUICK)
    assert ref.iterations == 1 and ref.trace == []
    assert np.array_equal(ref.initial_cloud.points, limit.initial_cloud.points)
    for a, b, c in zip(ref.flow.clouds, limit.flow.clouds, inter.flow.clouds, strict=True):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.points, c.points)


def test_weak_poc_coupling_term_is_zero_for_measure_free_models():
    levy = small_only_levy(rate=0.5)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.2)
    ref, reps = _replicated(weak_poc_replication, coeffs, levy, SMALL_POC, seed=50)
    report = run_weak_poc(coeffs, GRID, SMALL_POC, ref, reps)
    assert report.kind == "weak_poc"
    assert all(c == 0.0 for c in report.details["coupling_means"])
    assert all(e >= 0.0 for e in report.estimates)
    assert all(i > 0.0 for i in report.details["iid_means"])


def test_weak_poc_rejects_incompatible_p():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    ref, reps = _replicated(weak_poc_replication, coeffs, levy, SMALL_POC, seed=0)
    bad = PoCConfig(p=2.0, n_grid=[8, 16, 32], replications=3)
    with pytest.raises(ConfigurationError):  # p = beta leaves no exponent to measure against
        run_weak_poc(coeffs, GRID, bad, ref, reps)


def test_strong_poc_details_and_positivity():
    levy = small_only_levy(rate=0.5)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    ref, reps = _replicated(strong_poc_replication, coeffs, levy, SMALL_POC, seed=52)
    report = run_strong_poc(coeffs, SMALL_POC, ref, reps)
    assert report.kind == "strong_poc"
    assert report.theoretical == SMALL_POC.q1 * phi_rate(1.0, 2.0, 1)
    assert abs(report.details["tail_constant"] - 0.9 / 0.4) < 1e-12
    assert all(e > 0 for e in report.estimates)
    assert report.details["reference_paths"] == 128


def test_moment_report_ratios_and_spread():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    cfg = SolverConfig(paths=400)
    grid = TimeGrid.regular(1.0, 0.01)
    report = run_moment_experiment(
        coeffs, levy, grid, uniform_box_initial(1), [1.0, 2.0, 4.0], cfg, seed=53
    )
    assert report.passed and report.spread < 3.0
    assert report.mean_sup_moments is None
    assert len(report.ratios) == 3
    assert all(s >= f - 1e-12 for s, f in zip(report.sup_mean_moments, report.final_moments))
    assert all(s >= i - 1e-12 for s, i in zip(report.sup_mean_moments, report.initial_moments))
    with_sup = run_moment_experiment(
        coeffs, levy, grid, uniform_box_initial(1), [1.0, 2.0], cfg, seed=53,
        separated_coercivity=True,
    )
    assert with_sup.mean_sup_moments is not None
    assert all(
        ms >= sm - 1e-12 for ms, sm in zip(with_sup.mean_sup_moments, with_sup.sup_mean_moments)
    )
    assert "PASS" in str(report)


def test_moment_experiment_needs_two_scalings():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    with pytest.raises(ConfigurationError):
        run_moment_experiment(coeffs, levy, GRID, normal_initial(1), [1.0], QUICK, seed=0)
