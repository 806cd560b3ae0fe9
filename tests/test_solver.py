"""Solver structure: interlacing, coupling discipline, fixed point.

Most of these are bit-equality contracts, not tolerance checks: the
stream layout guarantees that structurally equivalent runs consume the
identical random numbers, so equality is exact or the layout is broken.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from levyfield.chaos import PoCConfig, strong_poc_replication
from levyfield.common_noise import CommonRealization
from levyfield.coefficients import CoefficientSet, build_cubic_interaction, build_frozen, build_linear_meanfield
from levyfield.errors import ConfigurationError, DivergenceError, NonConvergenceError
from levyfield.initial import normal_initial, point_initial, uniform_box_initial
from levyfield.measures import EmpiricalMeasure, MeasureFlow
from levyfield.noise import no_noise
from levyfield.solver import (
    SolverConfig,
    TimeGrid,
    _draw_tape,
    _Events,
    _EventTape,
    _coupled,
    _event_sums,
    _simulate_system,
    picard_fixed_point,
    resolve_gamma,
    simulate_coupled,
    simulate_particle_system,
)
from levyfield.streams import EXP_MAIN, Layer, StreamContext
from levyfield.wasserstein import flow_distance

from levyfield_testkit import assert_paths_equal, count_generators, make_levy, quick_config, small_only_levy


GRID = TimeGrid.regular(1.0, 0.05)
CTX = StreamContext(seed=101, experiment=EXP_MAIN, replica=0)
INIT = normal_initial(1)


def _decoupled_path(coeffs, flow, initial, grid, levy, config=None, particle_id=0):
    """The path of one particle's decoupled run against ``flow``."""
    tape = _draw_tape(coeffs, levy, grid, CTX, initial, 1, particle_ids=[particle_id])
    [run] = _simulate_system(coeffs, levy, grid, [(tape, flow)], config or SolverConfig())
    return run.paths[0]


def test_grid_requires_divisible_step():
    with pytest.raises(ConfigurationError):
        TimeGrid.regular(1.0, 0.3)
    with pytest.raises(ConfigurationError):
        TimeGrid.regular(0.0, 0.1)
    g = TimeGrid.regular(2.0, 0.25)
    assert g.n_steps == 8 and g.times[0] == 0.0 and g.times[-1] == 2.0


def test_solver_config_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        SolverConfig(paths=0, tol=-1.0, max_iter=0)
    assert len(err.value.violations) >= 3


def test_resolve_gamma_prefers_explicit_value():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    assert resolve_gamma(SolverConfig(gamma=3.5), coeffs) == 3.5
    assert resolve_gamma(SolverConfig(), coeffs) == 10.0 * coeffs.declared_one_sided
    anon = CoefficientSet(name="anon", dim=1, beta=2.0, drift=lambda X, ctx: -X)
    with pytest.raises(ConfigurationError):
        resolve_gamma(SolverConfig(), anon)


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def test_zero_rate_big_band_matches_deleted_band_bit_for_bit():
    from levyfield.noise import AnnulusUniform, LevyBand, LevyModel

    small = LevyBand(1.0, AnnulusUniform(1, 0.1, 1.0))
    levy_zero = LevyModel(dim=1, split_radius=1.0, small=small, big=LevyBand(0.0, AnnulusUniform(1, 1.0, 2.0)))
    levy_gone = LevyModel(dim=1, split_radius=1.0, small=small, big=None)
    coeffs = build_cubic_interaction(levy_zero, dim=1, beta=2.0)
    flow = MeasureFlow.constant(GRID.times, EmpiricalMeasure(np.zeros((4, 1))))
    pa = _decoupled_path(coeffs, flow, INIT, GRID, levy_zero)
    pb = _decoupled_path(coeffs, flow, INIT, GRID, levy_gone)
    assert_paths_equal(pa, pb)


def test_zero_rate_small_band_matches_deleted_band_bit_for_bit():
    from levyfield.noise import AnnulusUniform, LevyBand, LevyModel

    big = LevyBand(1.0, AnnulusUniform(1, 1.0, 2.0))
    levy_zero = LevyModel(dim=1, split_radius=1.0, small=LevyBand(0.0, AnnulusUniform(1, 0.1, 1.0)), big=big)
    levy_gone = LevyModel(dim=1, split_radius=1.0, small=None, big=big)
    coeffs = build_frozen(levy_zero, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2)
    ra = simulate_particle_system(coeffs, 8, INIT, levy_zero, GRID, CTX)
    rb = simulate_particle_system(coeffs, 8, INIT, levy_gone, GRID, CTX)
    assert np.array_equal(ra.final, rb.final)


def test_big_jumps_are_spliced_at_their_event_times():
    levy = make_levy(big_rate=3.0)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.2, gamma_g=0.3)
    cloud = EmpiricalMeasure(np.zeros((4, 1)))
    flow = MeasureFlow.constant(GRID.times, cloud)
    path = _decoupled_path(coeffs, flow, INIT, GRID, levy)
    assert path.jumps, "pinned seed produced no big jumps; pick another seed"
    jump_times = [j.time for j in path.jumps]
    assert jump_times == sorted(jump_times)
    # realized grid holds the uniform times plus every jump time
    for t in list(GRID.times) + jump_times:
        assert np.any(np.isclose(path.times, t))
    # applied increments reproduce g at the pre-jump state
    ctx_mu = coeffs.prepare(cloud)
    for j in path.jumps:
        assert j.band == "V"
        k = int(np.nonzero(np.isclose(path.times, j.time))[0][0])
        pre = path.states[k] - j.increment
        want = coeffs.big_jump(pre[None, :], j.mark[None, :], ctx_mu)[0]
        assert np.allclose(j.increment, want, atol=1e-12)


def test_one_particle_system_equals_decoupled_run_on_its_own_flow():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    res = simulate_particle_system(
        coeffs, 1, INIT, levy, GRID, CTX, quick_config()
    )
    again = _decoupled_path(coeffs, res.flow, INIT, GRID, levy, quick_config())
    assert_paths_equal(res.paths[0], again)


def test_measure_free_coefficients_decouple_the_system():
    levy = make_levy()
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.1)
    n = 6
    sys_res = simulate_particle_system(coeffs, n, INIT, levy, GRID, CTX)
    dummy = MeasureFlow.constant(GRID.times, EmpiricalMeasure(np.full((3, 1), 9.0)))
    for i in range(n):
        solo = _decoupled_path(coeffs, dummy, INIT, GRID, levy, particle_id=i)
        assert_paths_equal(sys_res.paths[i], solo)


def test_exchangeability_permuting_ids_permutes_paths():
    levy = make_levy()
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2)
    ids = [3, 1, 4, 0, 2]
    base = simulate_particle_system(coeffs, 5, INIT, levy, GRID, CTX, particle_ids=[0, 1, 2, 3, 4])
    perm = simulate_particle_system(coeffs, 5, INIT, levy, GRID, CTX, particle_ids=ids)
    for row, pid in enumerate(ids):
        assert np.array_equal(perm.final[row], base.final[pid])


def test_grid_refinement_order_on_the_linear_model():
    # no jumps: explicit Euler on dx = -x dt, exact solution e^{-1}
    levy = no_noise(1)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0)
    errors, steps = [], []
    flow = None
    for k in range(6, 13):
        h = 2.0**-k
        grid = TimeGrid.regular(1.0, h)
        flow = MeasureFlow.constant(grid.times, EmpiricalMeasure(np.zeros((2, 1))))
        path = _decoupled_path(coeffs, flow, point_initial([1.0]), grid, levy)
        errors.append(abs(path.states[-1, 0] - math.exp(-1.0)))
        steps.append(h)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope >= 0.8, f"measured strong order {slope:.3f} < 0.8"


def _small_events_in_draw_order(tape):
    """The tape's small-band ``(row, time, mark)`` in (row, time) order, whatever its grid."""
    small = tape.small
    order = np.lexsort((small.time, small.row))
    return small.row[order], small.time[order], small.mark[order]


def test_small_band_events_do_not_depend_on_the_step():
    levy = make_levy(small_rate=20.0, big_rate=0.0)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3)
    drawn = [
        _small_events_in_draw_order(_draw_tape(coeffs, levy, TimeGrid.regular(1.0, h), CTX, INIT, 16))
        for h in (0.02, 0.01, 0.005)
    ]
    assert drawn[0][0].size > 0
    for other in drawn[1:]:
        for a, b in zip(drawn[0], other):
            assert np.array_equal(a, b)


def test_strong_order_in_h_on_one_small_band():
    # dx = -a x dt + gamma_f dL~: symmetric marks leave a zero compensator, and the
    # exact end state is x0 e^{-aT} + gamma_f sum_i e^{-a(T - t_i)} z_i over the events
    levy = small_only_levy(rate=5.0)
    a, gamma_f, x0, n = 1.0, 0.5, 1.0, 64
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=a, gamma_f=gamma_f)
    errors, steps, first = [], [], None
    for k in range(6, 11):
        h = 2.0**-k
        grid = TimeGrid.regular(1.0, h)
        tape = _draw_tape(coeffs, levy, grid, CTX, np.full((n, 1), x0), n)
        row, time, mark = _small_events_in_draw_order(tape)
        if first is None:
            first = (row, time, mark)
            assert row.size > n
        assert all(np.array_equal(u, v) for u, v in zip(first, (row, time, mark)))
        exact = x0 * math.exp(-a) + gamma_f * np.bincount(row, np.exp(-a * (1.0 - time)) * mark[:, 0], minlength=n)
        flow = MeasureFlow.constant(grid.times, EmpiricalMeasure(np.zeros((2, 1))))
        final = _simulate_system(coeffs, levy, grid, [(tape, flow)], SolverConfig())[0].final[:, 0]
        errors.append(float(np.mean(np.abs(final - exact))))
        steps.append(h)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope >= 0.8, f"measured strong order {slope:.3f} < 0.8"


def test_divergence_error_reports_time_and_particle():
    levy = no_noise(1)

    def bad_drift(X, ctx):
        return X * (X * X).sum(axis=1)[:, None]

    coeffs = CoefficientSet(name="bad", dim=1, beta=2.0, drift=bad_drift)
    with pytest.raises(DivergenceError) as err:
        simulate_particle_system(coeffs, 4, point_initial([20.0]), levy, GRID, CTX)
    assert 0.0 < err.value.time <= 1.0
    assert err.value.magnitude > SolverConfig().divergence_threshold
    assert 0 <= err.value.particle < 4


def test_run_keeps_the_states_of_every_uniform_grid_time():
    levy = small_only_levy(dim=2)
    coeffs = build_cubic_interaction(levy, dim=2, beta=2.0)
    init = normal_initial(2)
    res = simulate_particle_system(coeffs, 3, init, levy, GRID, CTX)
    assert res.states.shape == (GRID.n_steps + 1, 3, 2)
    assert np.array_equal(res.states[0], _draw_tape(coeffs, levy, GRID, CTX, init, 3).x0)
    assert np.array_equal(res.final, res.states[-1])


def test_flow_clouds_are_views_of_the_read_only_states():
    levy = make_levy(big_rate=3.0)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2)
    res = simulate_particle_system(coeffs, 4, INIT, levy, GRID, CTX)
    assert res._breakpoints.row.size
    for t in GRID.times:
        assert np.shares_memory(res.flow.at(float(t)).points, res.states)
    with pytest.raises(ValueError):
        res.states[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        res.final[0] = 1.0


def test_every_segment_sums_in_one_order():
    # one step (0, 1]: particle 0 has its own small events, common small events and a
    # big event at 0.5 that ends its first window; particle 1 has no breakpoint
    b, c, c0 = (lambda x: 0.1 - 0.7 * x), (lambda x: 0.37 * x + 0.11), (lambda x: 0.13 * x - 0.07)
    f, f0 = (lambda x, z: 0.3 * x * z + z), (lambda x, z: 0.2 * x * z + 0.05 * z)
    coeffs = CoefficientSet(
        name="order", dim=1, beta=2.0, drift=lambda X, ctx: b(X), small_jump=lambda X, Z, ctx: f(X, Z),
        big_jump=lambda X, Z, ctx: X * Z, small_compensator=lambda X, ctx, lv: c(X),
        common_small=f0, common_small_compensator=lambda X, ctx, lv: c0(X),
    )
    grid = TimeGrid.regular(1.0, 1.0)
    small = _Events(np.array([0, 0, 0, 1, 1]), np.array([0.2, 0.45, 0.8, 0.3, 0.9]),
                    np.array([[0.3], [-0.6], [0.9], [0.5], [-0.25]]), np.array([0, 5]))
    big = _Events(np.array([0]), np.array([0.5]), np.array([[1.7]]), np.array([0, 1]))
    tape = _EventTape(np.array([[1.3], [-0.8]]), small, big)
    common = CommonRealization(make_levy(big_rate=0.0), np.array([0.3, 0.4, 0.7]),
                               np.array([[0.8], [-0.35], [0.6]]), np.empty(0), np.empty((0, 1)))
    [res] = _simulate_system(coeffs, make_levy(), grid, [(tape, None)], SolverConfig(), common=common)

    def segment(x, dt, common_marks, own_marks):
        out = x + dt * b(x)
        out = out - dt * c(x)
        out = out - dt * c0(x)
        for z in common_marks:
            out = out + f0(x, z)
        return out + np.sum([f(x, z) for z in own_marks])

    x0 = segment(1.3, 0.5, [0.8, -0.35], [0.3, -0.6])
    x0 = segment(x0 + x0 * 1.7, 1.0 - 0.5, [0.6], [0.9])
    x1 = segment(-0.8, 1.0, [0.8, -0.35, 0.6], [0.5, -0.25])
    assert np.array_equal(res.final, np.array([[x0], [x1]]))


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------


def test_coupled_pair_shares_noise_and_separates_only_through_the_measure():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    ref = simulate_particle_system(coeffs, 64, INIT, levy, GRID, CTX.with_(replica=9))
    out = simulate_coupled(coeffs, 16, INIT, levy, GRID, CTX, ref.flow, record_paths=True)
    assert out.sup_errors.shape == (16,)
    assert np.all(out.sup_errors >= out.final_errors - 1e-15)
    assert np.all(out.sup_errors >= 0)
    # same initial draws: paths start together
    for pa, pb in zip(out.interacting.paths, out.limit.paths):
        assert np.array_equal(pa.states[0], pb.states[0])
        assert np.array_equal(pa.times, pb.times)


def test_coupled_sup_errors_range_over_the_realized_grid():
    # a state-dependent big jump scales the gap at its arrival, between grid times
    levy = make_levy(big_rate=4.0)
    coeffs = replace(build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2), big_jump=lambda X, Z, ctx: X * Z)
    ref = simulate_particle_system(coeffs, 64, INIT, levy, GRID, CTX.with_(replica=2))
    out = simulate_coupled(coeffs, 16, INIT, levy, GRID, CTX, ref.flow, record_paths=True)
    on_paths = np.array([
        np.sqrt(((pa.states - pb.states) ** 2).sum(axis=1)).max()
        for pa, pb in zip(out.interacting.paths, out.limit.paths)
    ])
    assert np.array_equal(out.sup_errors, on_paths)
    on_grid = simulate_coupled(coeffs, 16, INIT, levy, GRID, CTX, ref.flow).sup_errors
    assert np.all(on_grid <= out.sup_errors) and np.any(on_grid < out.sup_errors)


def test_coupled_gap_vanishes_when_the_system_reads_the_same_flow():
    # frozen coefficients ignore the measure entirely: gap is exactly zero
    levy = make_levy()
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.2, gamma_g=0.1)
    ref = simulate_particle_system(coeffs, 32, INIT, levy, GRID, CTX.with_(replica=3))
    out = simulate_coupled(coeffs, 8, INIT, levy, GRID, CTX, ref.flow)
    assert np.all(out.sup_errors == 0.0)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def test_picard_trace_is_deterministic_and_converges():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    cfg = quick_config(paths=128, tol=1e-3)
    a = picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX)
    b = picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX)
    assert a.trace == b.trace
    assert all(d >= 0 for d in a.trace)
    assert a.trace[-1] < cfg.tol
    assert a.iterations == len(a.trace)
    for ca, cb in zip(a.flow.clouds, b.flow.clouds):
        assert np.array_equal(ca.points, cb.points)


def test_picard_contracts_at_moderate_gamma():
    # gamma low enough that several iterations happen, high enough to contract
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    cfg = quick_config(paths=256, tol=1e-6, max_iter=25, gamma=2.0)
    try:
        res = picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX)
        trace = res.trace
    except NonConvergenceError as err:  # tiny tol may exhaust the budget; trace still counts
        trace = err.trace
    assert len(trace) >= 4
    ratios = [b / a for a, b in zip(trace[1:], trace[2:]) if a > 0]
    assert ratios and all(r < 0.9 for r in ratios)


def test_picard_honors_initial_flow_override():
    levy = small_only_levy(rate=0.5)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    cfg = quick_config(paths=256, tol=1e-4)
    res_a = picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX)
    shifted = MeasureFlow.constant(GRID.times, EmpiricalMeasure(np.full((256, 1), 2.0)))
    res_b = picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX, initial_flow=shifted)
    gamma = resolve_gamma(cfg, coeffs)
    gap = flow_distance(res_a.flow, res_b.flow, coeffs.beta, gamma)
    assert gap < 2 * cfg.tol
    bad = MeasureFlow.constant(np.array([0.0, 1.0]), EmpiricalMeasure(np.zeros((2, 1))))
    with pytest.raises(ConfigurationError):
        picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX, initial_flow=bad)


def test_picard_nonconvergence_carries_the_trace():
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    cfg = quick_config(paths=64, tol=1e-12, max_iter=3)
    with pytest.raises(NonConvergenceError) as err:
        picard_fixed_point(coeffs, INIT, levy, GRID, cfg, CTX)
    assert len(err.value.trace) == 3
    assert err.value.tol == 1e-12


def test_crn_picard_limit_is_the_interacting_system_at_every_grid_time():
    # with common random numbers pass i is exact at t_0..t_i, so the
    # undiscounted iteration stops at distance 0 on the interacting run
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    grid = TimeGrid.regular(1.0, 0.01)  # the explicit cubic step diverges across big jumps at 0.05
    cfg = quick_config(paths=128, gamma=0.0, tol=1e-300, max_iter=grid.n_steps + 1)
    res = picard_fixed_point(coeffs, INIT, levy, grid, cfg, CTX)
    tape = _draw_tape(coeffs, levy, grid, CTX, INIT, 128)
    assert tape.big.row.size > 0
    [inter] = _simulate_system(coeffs, levy, grid, [(tape, None)], cfg)
    assert res.trace[-1] == 0.0
    for a, b in zip(res.flow.clouds, inter.flow.clouds, strict=True):
        assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# event tape reuse
# ---------------------------------------------------------------------------


def test_event_sums_equal_summing_each_particle_alone():
    rng = np.random.default_rng(3)
    owner = np.repeat([0, 2, 3, 7, 8, 11], [1, 9, 3, 9, 140, 2])
    vals = rng.normal(size=(owner.size, 2)) * 10.0 ** rng.uniform(-6, 6, size=(owner.size, 1))
    owners, sums = _event_sums(vals, owner)
    assert owners.tolist() == [0, 2, 3, 7, 8, 11]
    for j, total in zip(owners, sums):
        assert np.array_equal(total, vals[owner == j].sum(axis=0))


@pytest.mark.parametrize("owner", [[0, 2, 3, 7, 8, 11], [5], []], ids=["distinct", "one-event", "no-events"])
def test_event_sums_without_repeated_owners_equal_per_owner_sums(owner):
    owner = np.array(owner, dtype=int)
    vals = np.random.default_rng(4).normal(size=(owner.size, 2))
    owners, sums = _event_sums(vals, owner)
    assert owners.tolist() == owner.tolist()
    assert sums.shape == (owner.size, 2)
    for j, total in zip(owners, sums):
        assert np.array_equal(total, vals[owner == j].sum(axis=0))


def _prefix_case(case):
    """(coeffs, levy, initial, grid, common realization or None) of a decoupled-prefix case."""
    if case == "linear-state-jump":
        levy = make_levy(big_rate=3.0)
        coeffs = replace(build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2), big_jump=lambda X, Z, ctx: X * Z)
        return coeffs, levy, INIT, GRID, None
    if case == "frozen-d2":
        levy = make_levy(dim=2, big_rate=3.0)
        return build_frozen(levy, dim=2, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2), levy, normal_initial(2), GRID, None
    if case == "cubic-d2":
        # the explicit cubic step stays stable across big jumps only on a finer grid
        levy = make_levy(dim=2, big_hi=1.2)
        coeffs = build_cubic_interaction(levy, dim=2, beta=2.0)
        return coeffs, levy, normal_initial(2), TimeGrid.regular(1.0, 0.01), None
    from levyfield.common_noise import sample_common_realization

    levy = make_levy(big_rate=2.0)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2, gamma_f0=0.2, gamma_g0=0.3)
    common = sample_common_realization(make_levy(small_rate=2.0, big_rate=3.0), CTX.with_(replica=4), GRID.horizon)
    assert common.u_times.size and common.v_times.size
    return coeffs, levy, INIT, GRID, common


@pytest.mark.parametrize("case", ["linear-state-jump", "frozen-d2", "cubic-d2", "common"])
def test_decoupled_run_rows_equal_the_run_on_a_tape_prefix(case):
    coeffs, levy, initial, grid, common = _prefix_case(case)
    flow = simulate_particle_system(coeffs, 32, initial, levy, grid, CTX.with_(replica=5)).flow
    tape = _draw_tape(coeffs, levy, grid, CTX, initial, 24)

    def run(t):
        [result] = _simulate_system(coeffs, levy, grid, [(t, flow)], SolverConfig(), common=common)
        return result

    full = run(tape)
    rows = full._breakpoints.row
    assert np.any(rows < 7) and np.any(rows >= 7), "pinned seed splits no breakpoints at n = 7; pick another seed"
    for n in (1, 7, 24):
        head, own = full.head(n), run(tape.head(n))
        assert np.array_equal(head.final, own.final)
        assert np.array_equal(head.states, own.states)
        for name in ("step", "row", "time", "band", "mark", "increment", "state"):
            assert np.array_equal(getattr(head._breakpoints, name), getattr(own._breakpoints, name))
        assert len(head.paths) == n
        for pa, pb in zip(head.paths, own.paths):
            assert_paths_equal(pa, pb)
    with pytest.raises(ConfigurationError):
        full.head(25)


def _tape_arrays(tape):
    arrays = [tape.x0]
    for events in (tape.small, tape.big):
        arrays += [events.row, events.time, events.mark, events.offsets]
    return arrays


def test_tape_prefix_equals_tape_drawn_for_fewer_particles():
    levy = make_levy(big_rate=3.0)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2)
    full = _draw_tape(coeffs, levy, GRID, CTX, INIT, 40)
    assert full.small.row.size and full.big.row.size
    for n in (1, 7, 40):
        direct = _draw_tape(coeffs, levy, GRID, CTX, INIT, n)
        for a, b in zip(_tape_arrays(full.head(n)), _tape_arrays(direct)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("family", ["linear", "frozen-big"])
def test_coupled_run_on_a_shared_tape_equals_run_drawing_its_own(family):
    if family == "linear":
        levy = small_only_levy(rate=2.0)
        coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    else:
        levy = make_levy(big_rate=3.0)
        coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2)
    ref = simulate_particle_system(coeffs, 32, INIT, levy, GRID, CTX.with_(replica=5))
    tape = _draw_tape(coeffs, levy, GRID, CTX, INIT, 24)
    # the strong replication's pass: every count's system on its prefix, the limit copies on the whole tape
    *inters, limit = _simulate_system(coeffs, levy, GRID, [(tape.head(8), None), (tape, None), (tape, ref.flow)],
                                      SolverConfig())
    for n, inter in zip((8, 24), inters):
        own = simulate_coupled(coeffs, n, INIT, levy, GRID, CTX, ref.flow, record_paths=True)
        shared = _coupled(inter, limit.head(n))
        assert np.array_equal(own.sup_errors, shared.sup_errors)
        assert np.array_equal(own.final_errors, shared.final_errors)
        for pa, pb in zip(own.interacting.paths + own.limit.paths,
                          shared.interacting.paths + shared.limit.paths):
            assert_paths_equal(pa, pb)
    with pytest.raises(ConfigurationError):
        _coupled(inters[0], limit)
    with pytest.raises(ConfigurationError):
        _coupled(inters[1], limit.head(8))


@pytest.mark.parametrize("initial", [normal_initial(2), uniform_box_initial(2), point_initial([0.5, -1.0])],
                         ids=["draw0", "draw1", "draw2"])
def test_tape_initial_states_are_each_particles_own_init_draw(initial):
    ids = [4, 0, 9, 1]
    levy = make_levy(dim=2)
    tape = _draw_tape(build_cubic_interaction(levy, dim=2, beta=2.0, c2=1e3), levy, GRID, CTX, initial, 4, ids)
    for j, pid in enumerate(ids):
        # the law's doubles, read in order from the particle's own INIT generator
        u = CTX.generator(pid, Layer.INIT).random((initial.uniforms, 1))
        assert np.array_equal(tape.x0[j], initial.from_uniforms(u)[0])


def test_normal_initial_states_pass_ks_against_their_law():
    mean, std, n = 0.7, 2.0, 10_000
    levy = no_noise(1)
    tape = _draw_tape(build_cubic_interaction(levy, dim=1, beta=2.0), levy, GRID, CTX, normal_initial(1, mean, std), n)
    x = np.sort(tape.x0[:, 0])
    cdf = stats.norm.cdf(x, loc=mean, scale=std)
    ks = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(0, n) / n)))
    crit = 1.628 / math.sqrt(n)  # one-sample KS critical value at 0.01
    assert ks < crit, f"KS {ks:.5f} >= {crit:.5f}"


def test_strong_replication_mints_each_stream_once(monkeypatch):
    levy = small_only_levy(rate=0.5)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    poc = PoCConfig(p=1.0, n_grid=[8, 16, 32], replications=1)
    ref = simulate_particle_system(coeffs, 64, INIT, levy, GRID, CTX.with_(replica=7))
    counts = count_generators(monkeypatch)
    strong_poc_replication(coeffs, levy, GRID, INIT, poc, quick_config(), 101, 0, ref.flow)
    assert counts == {Layer.INIT: 32, Layer.SMALL: 32}


@pytest.mark.parametrize("passes", [2, 6])
def test_crn_picard_mints_one_small_stream_per_particle_for_any_pass_count(monkeypatch, passes):
    levy = small_only_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    counts = count_generators(monkeypatch)
    with pytest.raises(NonConvergenceError) as err:
        picard_fixed_point(coeffs, INIT, levy, GRID, quick_config(paths=48, tol=1e-12, max_iter=passes, gamma=1.0), CTX)
    assert len(err.value.trace) == passes
    assert counts == {Layer.INIT: 48, Layer.SMALL: 48}


# ---------------------------------------------------------------------------
# stacked passes
# ---------------------------------------------------------------------------


def _stack_case(case):
    """(coeffs, levy, initial, grid, common realization or None) of a stacked-pass case."""
    from levyfield.common_noise import sample_common_realization

    if case == "frozen-d1":
        levy = make_levy(big_rate=3.0)
        return build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2), levy, INIT, GRID, None
    if case.startswith("linear"):
        d = 2 if case == "linear-d2" else 1
        levy = make_levy(dim=d, big_rate=3.0)
        # a big jump that reads the law, so a row reading another block's law shows
        coeffs = replace(build_linear_meanfield(levy, dim=d, beta=2.0, gamma_f=0.2, gamma_f0=0.2, gamma_g0=0.3),
                         big_jump=lambda X, Z, mean: Z * (1.0 + X * mean))
        if case == "linear-d2":
            return coeffs, levy, normal_initial(2), GRID, None
        common = sample_common_realization(make_levy(small_rate=2.0, big_rate=3.0), CTX.with_(replica=4), GRID.horizon)
        assert common.u_times.size and common.v_times.size
        return coeffs, levy, INIT, GRID, common
    # the explicit cubic step stays stable across big jumps only on a fine grid
    levy = make_levy(big_hi=1.2)
    return build_cubic_interaction(levy, dim=1, beta=2.0), levy, INIT, TimeGrid.regular(1.0, 0.001), None


def _assert_runs_equal(a, b):
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.states, b.states)
    for name in ("step", "row", "time", "band", "mark", "increment", "state"):
        assert np.array_equal(getattr(a._breakpoints, name), getattr(b._breakpoints, name))
    for ca, cb in zip(a.flow.clouds, b.flow.clouds, strict=True):
        assert np.array_equal(ca.points, cb.points)


@pytest.mark.parametrize("case", ["frozen-d1", "linear-d2", "linear-common", "cubic-fine"])
def test_stacked_pass_equals_each_block_run_alone(case):
    coeffs, levy, initial, grid, common = _stack_case(case)
    flow = simulate_particle_system(coeffs, 32, initial, levy, grid, CTX.with_(replica=5), common=common).flow
    tape = _draw_tape(coeffs, levy, grid, CTX, initial, 12)
    other = _draw_tape(coeffs, levy, grid, CTX.with_(replica=6), initial, 7)
    assert tape.big.row.size and other.big.row.size
    # interacting and flow blocks of different sizes, on prefixes of one tape and on a second tape
    blocks = [(tape.head(5), None), (tape, flow), (other, None), (tape, None), (tape.head(9), flow)]
    stacked = _simulate_system(coeffs, levy, grid, blocks, SolverConfig(), common=common)
    assert len(stacked) == len(blocks)
    for block, run in zip(blocks, stacked):
        [alone] = _simulate_system(coeffs, levy, grid, [block], SolverConfig(), common=common)
        assert run.final.shape[0] == block[0].n and alone._breakpoints.row.size
        _assert_runs_equal(run, alone)


@pytest.mark.parametrize("route", ["callable-kernel", "identity-beta-1.5"])
def test_cubic_generic_route_in_a_two_block_pass_equals_its_block_runs(route):
    levy = make_levy(big_hi=1.2)
    if route == "callable-kernel":
        coeffs = build_cubic_interaction(levy, dim=1, beta=2.0, kernel=lambda v: v, kernel_lip=1.0)
    else:
        coeffs = build_cubic_interaction(levy, dim=1, beta=1.5)
    assert not isinstance(coeffs.prepare(EmpiricalMeasure(np.zeros((2, 1)))), np.ndarray)
    grid = TimeGrid.regular(1.0, 0.01)
    flow = simulate_particle_system(coeffs, 16, INIT, levy, grid, CTX.with_(replica=5)).flow
    tape = _draw_tape(coeffs, levy, grid, CTX, INIT, 6)
    assert tape.big.row.size
    blocks = [(tape.head(4), None), (tape, flow)]
    stacked = _simulate_system(coeffs, levy, grid, blocks, SolverConfig())
    for block, run in zip(blocks, stacked, strict=True):
        _assert_runs_equal(run, _simulate_system(coeffs, levy, grid, [block], SolverConfig())[0])


def test_stacked_divergence_reports_the_earliest_crossing_within_its_block():
    # x' = x^3 from x0 crosses 1e12 at step 6 from 5.0 and at step 3 from 40.0 (explicit steps of 0.02)
    coeffs = CoefficientSet(name="anti", dim=1, beta=2.0, drift=lambda X, ctx: X * (X * X).sum(axis=1, keepdims=True),
                            prepare=lambda mu: None)
    levy, grid = no_noise(1), TimeGrid.regular(1.0, 0.02)

    def tape(*x0):
        return _draw_tape(coeffs, levy, grid, CTX, np.array(x0)[:, None], len(x0))

    calm = MeasureFlow.constant(grid.times, EmpiricalMeasure(np.zeros((3, 1))))
    blocks = [(tape(0.1, 0.2), None), (tape(0.1, 5.0, 0.3), calm), (tape(0.1, 0.2, 0.3, 0.4, 0.5), None),
              (tape(0.1, 40.0, 0.2), None)]
    alone = []
    for block in blocks:
        try:
            _simulate_system(coeffs, levy, grid, [block], SolverConfig())
        except DivergenceError as err:
            alone.append(err)
    assert [err.particle for err in alone] == [1, 1] and alone[0].time > alone[1].time
    with pytest.raises(DivergenceError) as err:
        _simulate_system(coeffs, levy, grid, blocks, SolverConfig())
    assert err.value.time == alone[1].time == grid.times[3]
    assert err.value.particle == 1
    assert err.value.magnitude == alone[1].magnitude > SolverConfig().divergence_threshold
