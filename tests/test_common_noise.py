"""Shared-layer machinery: degeneracy, interlacing ties, conditional law map."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levyfield.chaos import PoCConfig, reference_fixed_point, run_weak_poc, weak_poc_replication
from levyfield.coefficients import build_frozen, build_linear_meanfield
from levyfield.common_noise import (
    CommonRealization,
    TwoLayerNoise,
    conditional_picard,
    conditional_poc_replication,
    conditional_reference,
    run_conditional_poc,
    sample_common_realization,
)
from levyfield.errors import ConfigurationError
from levyfield.initial import normal_initial, point_initial
from levyfield.measures import EmpiricalMeasure, MeasureFlow
from levyfield.noise import no_noise
from levyfield.solver import (
    SolverConfig,
    TimeGrid,
    _draw_tape,
    _simulate_system,
    picard_fixed_point,
    simulate_particle_system,
)
from levyfield.streams import EXP_MAIN, EXP_REFERENCE, Layer, StreamContext
from levyfield.wasserstein import conditional_distance, flow_distance

from levyfield_testkit import count_generators, make_levy, small_only_levy

GRID = TimeGrid.regular(1.0, 0.05)
CTX = StreamContext(seed=707, experiment=EXP_MAIN, replica=0)


def _empty_realization(model):
    d = model.dim
    return CommonRealization(
        model, np.empty(0), np.empty((0, d)), np.empty(0), np.empty((0, d))
    )


# ---------------------------------------------------------------------------
# model plumbing
# ---------------------------------------------------------------------------


def test_two_layer_noise_rejects_dim_mismatch():
    with pytest.raises(ConfigurationError):
        TwoLayerNoise(idio=make_levy(dim=1), common=make_levy(dim=2))
    layered = TwoLayerNoise.single_layer(make_levy(dim=3))
    assert layered.dim == 3 and layered.common.small_rate == 0.0


def test_sample_common_realization_deterministic_and_band_gated():
    model = make_levy(dim=1, small_rate=2.0, big_rate=1.5)
    a = sample_common_realization(model, CTX, 1.0)
    b = sample_common_realization(model, CTX, 1.0)
    assert np.array_equal(a.u_times, b.u_times) and np.array_equal(a.u_marks, b.u_marks)
    assert np.array_equal(a.v_times, b.v_times) and np.array_equal(a.v_marks, b.v_marks)
    assert np.all(np.diff(a.u_times) >= 0) and np.all(np.diff(a.v_times) >= 0)
    assert a.n_events == a.u_times.size + a.v_times.size

    other = sample_common_realization(model, CTX.with_(replica=1), 1.0)
    assert not (
        np.array_equal(a.u_times, other.u_times) and np.array_equal(a.v_times, other.v_times)
    )
    assert sample_common_realization(no_noise(1), CTX, 1.0).empty
    with pytest.raises(ConfigurationError):
        sample_common_realization(model, CTX, -1.0)


# ---------------------------------------------------------------------------
# degenerate common layer: bit-exact reductions
# ---------------------------------------------------------------------------


def test_zero_rate_common_layer_reduces_to_single_layer_system():
    levy = make_levy(dim=1, small_rate=1.0, big_rate=1.0)
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.2, gamma_g=0.3)
    plain = simulate_particle_system(
        coeffs, 6, normal_initial(1), levy, GRID, CTX, record_paths=True
    )
    silent = sample_common_realization(TwoLayerNoise.single_layer(levy).common, CTX, GRID.horizon)
    assert silent.empty
    layered = simulate_particle_system(
        coeffs, 6, normal_initial(1), levy, GRID, CTX, common=silent, record_paths=True
    )
    assert np.array_equal(plain.final, layered.final)
    for fa, fb in zip(plain.flow.clouds, layered.flow.clouds):
        assert np.array_equal(fa.points, fb.points)
    for pa, pb in zip(plain.paths, layered.paths):
        assert np.array_equal(pa.times, pb.times)
        assert np.array_equal(pa.states, pb.states)


@pytest.mark.parametrize("k", [1, 3])
def test_conditional_picard_with_silent_common_layer_matches_plain(k):
    levy = small_only_levy(rate=1.0)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    cfg = SolverConfig(paths=64, tol=1e-2, max_iter=15)
    plain = picard_fixed_point(coeffs, normal_initial(1), levy, GRID, cfg, CTX)
    cond = conditional_picard(
        coeffs, normal_initial(1), TwoLayerNoise.single_layer(levy), GRID, cfg, CTX, k=k
    )
    assert cond.trace == plain.trace
    assert cond.iterations == plain.iterations
    for flow in cond.flows:
        for fa, fb in zip(flow.clouds, plain.flow.clouds):
            assert np.array_equal(fa.points, fb.points)


def test_crn_conditional_picard_limit_is_one_interacting_run_per_path():
    # a live common layer: every path holds at least one common big event
    idio = small_only_levy(rate=0.5)
    noise = TwoLayerNoise(idio=idio, common=make_levy(small_rate=1.0, big_rate=1.0))
    coeffs = build_linear_meanfield(idio, dim=1, beta=2.0, gamma_f=0.2, gamma_f0=0.2, gamma_g0=0.3)
    poc = PoCConfig(p=1.0, n_grid=[8, 16, 32], replications=3, reference_paths=96)
    exact = SolverConfig(paths=96, gamma=0.0, tol=1e-300, max_iter=GRID.n_steps + 1)
    ref = conditional_reference(coeffs, noise, GRID, normal_initial(1), poc, exact, 42)
    assert all(r.v_times.size > 0 for r in ref.realizations)
    ctx = StreamContext(seed=42, experiment=EXP_REFERENCE, replica=0)
    limit = conditional_picard(
        coeffs, normal_initial(1), noise, GRID, exact, ctx, realizations=ref.realizations, eta=0.0
    )
    assert limit.trace[-1] == 0.0
    assert ref.iterations == 1 and ref.trace == []
    assert np.array_equal(ref.initial_cloud.points, limit.initial_cloud.points)
    tape = _draw_tape(coeffs, idio, GRID, ctx, normal_initial(1), 96)
    for realization, flow, limit_flow in zip(ref.realizations, ref.flows, limit.flows, strict=True):
        [run] = _simulate_system(coeffs, idio, GRID, [(tape, None)], exact, common=realization, collect_clouds=True)
        for a, b, c in zip(run.flow.clouds, flow.clouds, limit_flow.clouds, strict=True):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.points, c.points)


def test_conditional_poc_with_silent_common_layer_matches_weak_poc():
    levy = small_only_levy(rate=0.5)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    poc = PoCConfig(p=1.0, n_grid=[8, 16, 32], replications=3, reference_paths=128)
    solver = SolverConfig(paths=64, tol=1e-2, max_iter=15)
    ref = reference_fixed_point(coeffs, normal_initial(1), levy, GRID, solver, poc, 42)
    weak = run_weak_poc(coeffs, GRID, poc, ref, [
        weak_poc_replication(coeffs, levy, GRID, normal_initial(1), poc, solver, 42, r, ref.flow)
        for r in range(poc.replications)
    ])
    noise = TwoLayerNoise.single_layer(levy)
    cond_ref = conditional_reference(coeffs, noise, GRID, normal_initial(1), poc, solver, 42)
    cond = run_conditional_poc(coeffs, noise, poc, cond_ref, [
        conditional_poc_replication(
            coeffs, noise, GRID, normal_initial(1), poc, solver, 42, j, flow, realization
        )
        for j, (flow, realization) in enumerate(zip(cond_ref.flows, cond_ref.realizations))
    ])
    assert cond.kind == "conditional_poc"
    assert cond.estimates == weak.estimates
    assert cond.ses == weak.ses
    assert cond.slope == weak.slope
    assert cond.details["coupling_means"] == weak.details["coupling_means"]
    assert cond.details["iid_means"] == weak.details["iid_means"]
    assert cond.details["common_events"] == [0, 0, 0]


# ---------------------------------------------------------------------------
# interlacing with live common events
# ---------------------------------------------------------------------------


def test_simultaneous_events_apply_idiosyncratic_before_common():
    levy = make_levy(dim=1, small_rate=0.5, big_rate=3.0)
    common_model = make_levy(dim=1, small_rate=0.0, big_rate=1.0)
    # state-dependent shared jump so the application order is visible in values
    coeffs = replace(
        build_frozen(levy, dim=1, beta=2.0, a=0.5, gamma_f=0.1, gamma_g=0.4),
        common_big=lambda X, Z, ctx: X * Z,
    )
    base = simulate_particle_system(
        coeffs, 1, point_initial([1.0]), levy, GRID, CTX,
        record_paths=True, common=_empty_realization(common_model),
    )
    v_jumps = [j for j in base.paths[0].jumps if j.band == "V"]
    assert v_jumps, "pinned seed produced no idiosyncratic big jumps"
    t_star = v_jumps[0].time

    pinned = CommonRealization(
        common_model, np.empty(0), np.empty((0, 1)), np.array([t_star]), np.array([[1.5]])
    )
    tied = simulate_particle_system(
        coeffs, 1, point_initial([1.0]), levy, GRID, CTX, record_paths=True, common=pinned,
    )
    path = tied.paths[0]
    at_tie = [j for j in path.jumps if j.time == t_star]
    assert [j.band for j in at_tie] == ["V", "V0"]

    # the common increment must read the post-idiosyncratic state
    tie_idx = np.flatnonzero(np.asarray(path.times) == t_star)
    assert tie_idx.size == 2
    x_mid = path.states[tie_idx[0]]
    assert np.array_equal(at_tie[1].increment, x_mid * 1.5)
    assert np.any(at_tie[0].increment != 0.0)

    # pinning the common path leaves the idiosyncratic event log untouched
    assert [j.time for j in path.jumps if j.band == "V"] == [j.time for j in v_jumps]


def _rounds_case():
    """Frozen family with live idiosyncratic and common big bands, no small band.

    Segments are then pure drift ``x + dtau (-a x)``, so every breakpoint
    can be recomputed from the point before it.
    """
    levy = make_levy(dim=1, small_rate=0.0, big_rate=12.0)
    common_model = make_levy(dim=1, small_rate=0.0, big_rate=6.0)
    coeffs = replace(
        build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_g=0.3),
        common_big=lambda X, Z, ctx: X * Z,
    )
    return coeffs, TwoLayerNoise(idio=levy, common=common_model)


def _check_breakpoints(path, a=1.0, gamma_g=0.3):
    jump_times = [j.time for j in path.jumps]
    rows = np.flatnonzero(np.isin(path.times, jump_times))
    assert rows.size == len(path.jumps)
    for r, jump in zip(rows, path.jumps):
        prev = path.states[r - 1]
        dtau = path.times[r] - path.times[r - 1]
        pre = prev + dtau * (-a * prev) if dtau > 0 else prev
        assert np.array_equal(path.states[r], pre + jump.increment)
        want = gamma_g * jump.mark if jump.band == "V" else pre * jump.mark
        assert np.array_equal(jump.increment, want)


def test_recorded_paths_match_uniform_states_and_breakpoint_arithmetic():
    coeffs, noise = _rounds_case()
    n = 12
    realization = sample_common_realization(noise.common, CTX, GRID.horizon)
    assert realization.v_times.size >= 2
    res = simulate_particle_system(
        coeffs, n, normal_initial(1), noise.idio, GRID, CTX, common=realization, record_paths=True
    )
    tape = _draw_tape(coeffs, noise.idio, GRID, CTX, normal_initial(1), n)
    [plain] = _simulate_system(
        coeffs, noise.idio, GRID, [(tape, None)], SolverConfig(), common=realization, collect_states=True
    )
    per_step = np.zeros((n, GRID.n_steps), dtype=int)
    for j, path in enumerate(res.paths):
        jump_times = [jm.time for jm in path.jumps]
        assert np.all(np.diff(path.times) > 0)
        uniform = ~np.isin(path.times, jump_times)
        assert np.array_equal(path.times[uniform], GRID.times)
        assert np.array_equal(path.states[uniform], plain.states[:, j])
        _check_breakpoints(path)
        assert sum(jm.band == "V0" for jm in path.jumps) == realization.v_times.size
        np.add.at(per_step[j], np.searchsorted(GRID.times, jump_times, side="left") - 1, 1)
    # some step sends particles through different numbers of rounds
    assert any(len(set(col) - {0}) >= 2 and col.max() >= 2 for col in per_step.T)


def test_tied_breakpoints_apply_idiosyncratic_first_for_every_particle():
    coeffs, noise = _rounds_case()
    n = 6
    base = simulate_particle_system(
        coeffs, n, normal_initial(1), noise.idio, GRID, CTX,
        common=_empty_realization(noise.common), record_paths=True,
    )
    t_star = base.paths[3].jumps[0].time
    pinned = CommonRealization(noise.common, np.empty(0), np.empty((0, 1)), np.array([t_star]), np.array([[1.5]]))
    tied = simulate_particle_system(
        coeffs, n, normal_initial(1), noise.idio, GRID, CTX, common=pinned, record_paths=True
    )
    for j, path in enumerate(tied.paths):
        at_tie = [jm for jm in path.jumps if jm.time == t_star]
        assert [jm.band for jm in at_tie] == (["V", "V0"] if j == 3 else ["V0"])
        _check_breakpoints(path)


def test_conditional_picard_mints_one_inner_tape_for_all_paths(monkeypatch):
    levy = small_only_levy(rate=1.0)
    common_model = make_levy(dim=1, small_rate=1.0, big_rate=1.0)
    noise = TwoLayerNoise(idio=levy, common=common_model)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2, gamma_f0=0.3, gamma_g0=0.4)
    cfg = SolverConfig(paths=32, tol=1e-2, max_iter=20)
    realizations = [
        sample_common_realization(common_model, CTX.with_(replica=j), GRID.horizon) for j in range(3)
    ]
    counts = count_generators(monkeypatch)
    conditional_picard(coeffs, normal_initial(1), noise, GRID, cfg, CTX, realizations=realizations[:1])
    one = dict(counts)
    counts.clear()
    res = conditional_picard(coeffs, normal_initial(1), noise, GRID, cfg, CTX, realizations=realizations)
    assert res.iterations >= 2
    assert dict(counts) == one == {Layer.INIT: 32, Layer.SMALL: 32}


def test_pure_common_noise_moves_all_particles_in_lockstep():
    common_model = make_levy(dim=1, small_rate=1.5, big_rate=3.0)
    coeffs = build_linear_meanfield(
        no_noise(1), dim=1, beta=2.0, a=1.0, c=0.5, gamma_f0=0.3, gamma_g0=0.5
    )
    ctx = StreamContext(seed=700, experiment=EXP_MAIN, replica=0)
    realization = sample_common_realization(common_model, ctx, GRID.horizon)
    res = simulate_particle_system(
        coeffs, 5, point_initial([1.0]), no_noise(1), GRID, ctx, common=realization, record_paths=True
    )
    assert realization.u_times.size > 0 and realization.v_times.size > 0
    assert np.all(res.final == res.final[0])
    common_jumps = res.paths[0].jumps
    assert all(j.band == "V0" for j in common_jumps)
    assert len(common_jumps) == realization.v_times.size


def test_exchangeability_holds_within_one_common_path():
    levy = make_levy(dim=1, small_rate=1.0, big_rate=0.5)
    common_model = make_levy(dim=1, small_rate=1.0, big_rate=1.0)
    coeffs = build_linear_meanfield(
        levy, dim=1, beta=2.0, gamma_f=0.2, gamma_f0=0.3, gamma_g0=0.4
    )
    realization = sample_common_realization(common_model, CTX, GRID.horizon)
    perm = [2, 0, 3, 1]
    straight = simulate_particle_system(
        coeffs, 4, normal_initial(1), levy, GRID, CTX, common=realization
    )
    shuffled = simulate_particle_system(
        coeffs, 4, normal_initial(1), levy, GRID, CTX, common=realization, particle_ids=perm,
    )
    # the interaction statistic sums the cloud in permuted order, so the
    # match is exact only up to float summation order
    assert np.allclose(shuffled.final, straight.final[perm], rtol=1e-10, atol=1e-12)


def test_common_layer_spreads_conditional_means():
    levy = small_only_levy(rate=1.0)
    common_model = make_levy(dim=1, small_rate=0.0, big_rate=2.0)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2, gamma_g0=0.6)
    means = []
    for j in range(5):
        realization = sample_common_realization(
            common_model, CTX.with_(replica=j), GRID.horizon
        )
        first = simulate_particle_system(
            coeffs, 64, normal_initial(1), levy, GRID, CTX, common=realization
        )
        again = simulate_particle_system(
            coeffs, 64, normal_initial(1), levy, GRID, CTX, common=realization
        )
        assert np.array_equal(first.final, again.final)
        means.append(float(first.final.mean()))
    assert max(means) - min(means) > 0.02


# ---------------------------------------------------------------------------
# conditional distance and fixed point
# ---------------------------------------------------------------------------


def _random_flow(rng, times, n=16, d=2):
    return MeasureFlow(times, [EmpiricalMeasure(rng.normal(size=(n, d))) for _ in times])


def test_conditional_distance_single_path_equals_flow_distance():
    rng = np.random.default_rng(3)
    times = np.array([0.0, 0.5, 1.0])
    a, b = _random_flow(rng, times), _random_flow(rng, times)
    assert conditional_distance([a], [b], 1.5, 2.0) == flow_distance(a, b, 1.5, 2.0)


def test_conditional_distance_short_circuits_identical_paths():
    # replicating one pair k times must not round-trip through the
    # beta-th power: the value stays bit-equal to the single-pair one
    rng = np.random.default_rng(4)
    times = np.array([0.0, 0.5, 1.0])
    a, b = _random_flow(rng, times), _random_flow(rng, times)
    single = flow_distance(a, b, 1.5, 0.7)
    assert conditional_distance([a] * 3, [b] * 3, 1.5, 0.7) == single
    w = np.mean([(0.1**1.5)] * 3) ** (1 / 1.5)
    assert w != 0.1  # the naive power mean would have perturbed the bits


def test_conditional_distance_guards():
    rng = np.random.default_rng(5)
    times = np.array([0.0, 1.0])
    a, b = _random_flow(rng, times), _random_flow(rng, times)
    with pytest.raises(ConfigurationError):
        conditional_distance([a, b], [a], 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        conditional_distance([], [], 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        conditional_distance([a], [b], 2.0, -1.0)
    off_grid = _random_flow(rng, np.array([0.0, 2.0]))
    with pytest.raises(ConfigurationError):
        conditional_distance([a], [off_grid], 2.0, 1.0)


def test_conditional_picard_argument_guards():
    levy = small_only_levy()
    common_model = make_levy(dim=1, small_rate=0.0, big_rate=1.0)
    noise = TwoLayerNoise(idio=levy, common=common_model)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2, gamma_g0=0.5)
    cfg = SolverConfig(paths=32, tol=1e-2, max_iter=10)
    with pytest.raises(ConfigurationError):
        conditional_picard(coeffs, normal_initial(1), noise, GRID, cfg, CTX)
    with pytest.raises(ConfigurationError):
        conditional_picard(
            coeffs, normal_initial(1), noise, GRID, replace(cfg, paths=1), CTX, k=2
        )
    cloud = EmpiricalMeasure(np.zeros((32, 1)))
    with pytest.raises(ConfigurationError):
        conditional_picard(
            coeffs, normal_initial(1), noise, GRID, cfg, CTX, k=2,
            initial_flows=[MeasureFlow.constant(GRID.times, cloud)],
        )


def test_conditional_picard_converges_with_live_common_layer():
    levy = small_only_levy(rate=1.0)
    common_model = make_levy(dim=1, small_rate=1.0, big_rate=1.0)
    noise = TwoLayerNoise(idio=levy, common=common_model)
    coeffs = build_linear_meanfield(
        levy, dim=1, beta=2.0, gamma_f=0.2, gamma_f0=0.3, gamma_g0=0.4
    )
    cfg = SolverConfig(paths=64, tol=1e-2, max_iter=20)
    res = conditional_picard(coeffs, normal_initial(1), noise, GRID, cfg, CTX, k=3)
    assert res.iterations == len(res.trace) <= 20
    assert res.trace[-1] < cfg.tol
    assert len(res.flows) == len(res.realizations) == 3
    # distinct common paths must produce distinct conditional laws
    assert not np.array_equal(res.flows[0].at(1.0).points, res.flows[1].at(1.0).points)


def test_conditional_picard_frozen_coefficients_stall_at_zero():
    # measure-independent dynamics ignore the flow, so the second sweep
    # reproduces the first bit for bit and the distance hits exactly 0
    levy = small_only_levy(rate=1.0)
    common_model = make_levy(dim=1, small_rate=0.0, big_rate=1.0)
    noise = TwoLayerNoise(idio=levy, common=common_model)
    coeffs = replace(
        build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.2),
        common_big=lambda X, Z, ctx: 0.5 * Z,
    )
    cfg = SolverConfig(paths=32, tol=1e-6, max_iter=5, gamma=2.0)
    res = conditional_picard(coeffs, normal_initial(1), noise, GRID, cfg, CTX, k=2)
    assert res.iterations == 2
    assert res.trace[1] == 0.0
