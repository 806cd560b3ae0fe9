"""Acceptance battery: end-to-end gates on the shipped experiment configs.

Each test prints one [PASS]/[FAIL] line with the measured numbers and wall
time, then asserts. Statistical checks run at the pinned config seeds, so
every verdict here is a deterministic regression.
"""

import json
import math
import time
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from levyfield.chaos import fit_loglog_slope, phi_rate
from levyfield.coefficients import CoefficientSet, build_frozen, build_linear_meanfield
from levyfield.common_noise import TwoLayerNoise, conditional_picard, simulate_common_system
from levyfield.config import load_config, validate_and_build
from levyfield.errors import DivergenceError
from levyfield.initial import normal_initial, point_initial
from levyfield.measures import EmpiricalMeasure, MeasureFlow
from levyfield.noise import AnnulusUniform, LevyBand, LevyModel, _draw_block_events, no_noise
from levyfield.runner import PASS, run_experiment, wasserstein_selftest
from levyfield.solver import (
    SolverConfig,
    TimeGrid,
    picard_fixed_point,
    resolve_gamma,
    simulate_particle_system,
)
from levyfield.streams import EXP_MAIN, Layer, NoiseStream, StreamContext
from levyfield.wasserstein import flow_distance, w_p_1d, w_p_exact

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

pytestmark = pytest.mark.slow


def _run_config(name: str, tmp_path: Path, jobs: int = 1):
    spec = validate_and_build(load_config(CONFIG_DIR / name))
    out = tmp_path / name.replace(".yaml", "")
    code = run_experiment(spec, out, jobs=jobs)
    result_path = out / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return spec, code, result, out


def _verdict(capsys, label: str, passed: bool, detail: str):
    with capsys.disabled():
        print(f"\n[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def test_criterion_01_rate_exponent_exactness(capsys):
    t0 = time.perf_counter()

    def reread(p, beta, d):
        # independent transcription of the two-branch exponent
        moment = -(1.0 - p / beta)
        dimension = -p / d
        if d <= 2:
            return moment
        if d == 3:
            return moment if (p >= 1.5 or beta < 3.0 * p / (3.0 - p)) else dimension
        return moment if beta < d * p / (d - p) else dimension

    points = 0
    exact = True
    for p in np.linspace(1.0, 1.99, 25):  # [1, 2)
        for beta in np.linspace(1.01, 2.0, 25):  # (1, 2]
            if p < beta:
                for d in range(1, 7):
                    points += 1
                    exact = exact and phi_rate(float(p), float(beta), d) == reread(p, beta, d)
    boundary = phi_rate(1.0, 4.0 / 3.0, 4) == -0.25
    wall = time.perf_counter() - t0
    ok = exact and boundary and points >= 200 and wall < 1.0
    _verdict(
        capsys, "criterion 1 (rate exponent exactness)", ok,
        f"{points} grid points exact, boundary value -0.25, {wall:.3f}s < 1s",
    )


def test_criterion_02_iid_wasserstein_rate(capsys, tmp_path):
    t0 = time.time()
    spec, code, res, _ = _run_config("poc_iid_linear.yaml", tmp_path)
    slope, slope_se = fit_loglog_slope(res["n_values"], res["details"]["iid_means"])
    wall = time.time() - t0
    reps = res["details"]["replications"]
    ok = code == PASS and -0.65 <= slope <= -0.35 and reps == 200 and wall < 300
    _verdict(
        capsys, "criterion 2 (iid W_1 sampling rate)", ok,
        f"slope {slope:.4f} (se {slope_se:.4f}) in [-0.65, -0.35], "
        f"{reps} replications, {wall:.0f}s < 300s",
    )


def test_criterion_03_weak_chaos_slope(capsys, tmp_path):
    t0 = time.time()
    spec, code, res, _ = _run_config("poc_weak_cubic.yaml", tmp_path)
    wall = time.time() - t0
    ok = (
        code == PASS
        and res["passed"]
        and res["slope"] <= -0.35
        and res["theoretical"] == -0.5
        and res["n_values"] == [2**k for k in range(6, 13)]
        and res["details"]["replications"] >= 100
        and wall < 1200
    )
    _verdict(
        capsys, "criterion 3 (weak chaos slope, cubic)", ok,
        f"slope {res['slope']:.4f} <= -0.35 (theoretical -0.5), {wall:.0f}s < 1200s",
    )


def test_criterion_04_strong_chaos_slope(capsys, tmp_path):
    t0 = time.time()
    spec, code, res, _ = _run_config("poc_strong_linear.yaml", tmp_path)
    wall = time.time() - t0
    ok = (
        code == PASS
        and res["passed"]
        and res["slope"] <= -0.10
        and res["theoretical"] == 0.5 * -0.5
        and res["details"]["q1"] == 0.5
        and res["details"]["q2"] == 0.9
        and wall < 1200
    )
    _verdict(
        capsys, "criterion 4 (strong chaos slope, linear)", ok,
        f"slope {res['slope']:.4f} <= -0.10 (theoretical -0.25), {wall:.0f}s < 1200s",
    )


def test_criterion_05_picard_contraction_and_uniqueness(capsys, tmp_path):
    t0 = time.time()
    spec, code, res, out = _run_config("picard_cubic.yaml", tmp_path)
    trace = [float(r.split(",")[1]) for r in (out / "trace.csv").read_text().splitlines()[1:]]
    ratios = [trace[k] / trace[k - 1] for k in range(2, len(trace))]  # d_{k+1}/d_k, k >= 2
    gamma = resolve_gamma(spec.solver, spec.coeffs)
    converged = code == PASS and res["converged"] and res["iterations"] <= 20
    gamma_ok = (
        spec.solver.gamma is None
        and abs(res["gamma"] - 10.0 * spec.coeffs.declared_one_sided) < 1e-9
    )
    contraction = all(r < 0.9 for r in ratios)  # vacuous when <= 2 iterations

    # uniqueness surrogate: restart from a far-off constant flow
    ctx = StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0)
    default_run = picard_fixed_point(
        spec.coeffs, spec.initial, spec.levy, spec.grid, spec.solver, ctx
    )
    shifted = MeasureFlow.constant(
        spec.grid.times, EmpiricalMeasure(np.full((spec.solver.paths, spec.coeffs.dim), 2.0))
    )
    restarted = picard_fixed_point(
        spec.coeffs, spec.initial, spec.levy, spec.grid, spec.solver, ctx, initial_flow=shifted
    )
    gap = flow_distance(default_run.flow, restarted.flow, spec.coeffs.beta, gamma)
    unique = gap < 2 * spec.solver.tol

    # the discount hides late-time error; undiscounted, the passes must show contraction
    plain_cfg = replace(spec.solver, gamma=0.0, tol=1e-12, max_iter=60, crn=True)
    plain = picard_fixed_point(spec.coeffs, spec.initial, spec.levy, spec.grid, plain_cfg, ctx)
    plain_ratios = [b / a for a, b in zip(plain.trace[1:], plain.trace[2:])]
    plain_contraction = bool(plain_ratios) and all(r < 0.9 for r in plain_ratios)
    wall = time.time() - t0
    ok = converged and gamma_ok and contraction and unique and plain_contraction and len(trace) >= 2 and wall < 600
    _verdict(
        capsys, "criterion 5 (Picard contraction and uniqueness)", ok,
        f"converged in {res['iterations']} iters at gamma {res['gamma']:.2f} = 10*L1, "
        f"d2/d1 {trace[1] / trace[0]:.4f}, {len(ratios)} k>=2 ratios all < 0.9, "
        f"undiscounted: {plain.iterations} iters, {len(plain_ratios)} k>=2 ratios, "
        f"max {max(plain_ratios, default=math.nan):.4f} < 0.9, "
        f"restart gap {gap:.2e} < 2*tol, {wall:.0f}s < 600s",
    )


def test_criterion_06_closed_form_mean(capsys):
    t0 = time.time()
    spec = validate_and_build(load_config(CONFIG_DIR / "picard_linear_exact_mean.yaml"))
    res = picard_fixed_point(
        spec.coeffs, spec.initial, spec.levy, spec.grid, spec.solver,
        StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0),
    )
    pts = res.flow.at(spec.grid.horizon).points[:, 0]
    mean = float(pts.mean())
    se = float(pts.std(ddof=1) / math.sqrt(pts.size))
    target = math.exp(-0.5)  # dm/dt = (c - a) m with m(0) = 1
    err = abs(mean - target)
    bound = 3 * se + 0.01
    wall = time.time() - t0
    ok = (
        err <= bound
        and pts.size == 10_000
        and spec.grid.step == 1e-3
        and spec.coeffs.params == {"a": 1.0, "c": 0.5, "gamma_f": 0.0, "gamma_f0": 0.0, "gamma_g0": 0.0}
        and wall < 120
    )
    _verdict(
        capsys, "criterion 6 (closed-form mean)", ok,
        f"mean(T=1) {mean:.5f} vs e^-0.5 {target:.5f}, |diff| {err:.5f} <= {bound:.5f}, "
        f"{wall:.0f}s < 120s",
    )


def test_criterion_07_moment_flatness_and_divergence(capsys, tmp_path):
    t0 = time.time()
    spec, code, res, _ = _run_config("moments_cubic.yaml", tmp_path)
    spread_ok = code == PASS and res["passed"] and res["spread"] < 3.0
    scalings_ok = [float(s) for s in res["scalings"]] == [1.0, 2.0, 4.0, 8.0]

    anti = CoefficientSet(
        name="anti_coercive",
        dim=1,
        beta=2.0,
        drift=lambda X, ctx: X * (X * X).sum(axis=1, keepdims=True),
        prepare=lambda mu: None,
        declared_one_sided=None,
        declared_coercivity=None,
    )
    try:
        simulate_particle_system(
            anti, 16, point_initial([20.0]), no_noise(1), TimeGrid.regular(1.0, 0.02),
            StreamContext(seed=7, experiment=EXP_MAIN, replica=0),
        )
        diverged = False
    except DivergenceError:
        diverged = True
    wall = time.time() - t0
    ok = spread_ok and scalings_ok and diverged and wall < 300
    _verdict(
        capsys, "criterion 7 (moment flatness + anti-coercive divergence)", ok,
        f"spread {res['spread']:.3f} < 3 across scalings 1,2,4,8; "
        f"anti-coercive drift diverged={diverged}; {wall:.0f}s < 300s",
    )


def test_criterion_08_interlacing_and_metric_invariants(capsys):
    t0 = time.time()
    grid = TimeGrid.regular(1.0, 0.05)
    ctx = StreamContext(seed=88, experiment=EXP_MAIN, replica=0)
    small = LevyBand(rate=1.0, sampler=AnnulusUniform(1, 0.0, 1.0))
    zero_big = LevyModel(
        dim=1, split_radius=1.0, small=small,
        big=LevyBand(rate=0.0, sampler=AnnulusUniform(1, 1.0, 2.0)),
    )
    no_big = LevyModel(dim=1, split_radius=1.0, small=small, big=None)
    coeffs = build_frozen(zero_big, dim=1, beta=2.0, a=1.0, gamma_f=0.2, gamma_g=0.3)
    run_zero = simulate_particle_system(coeffs, 8, normal_initial(1), zero_big, grid, ctx, record_paths=True)
    run_none = simulate_particle_system(coeffs, 8, normal_initial(1), no_big, grid, ctx, record_paths=True)
    bit_equal = np.array_equal(run_zero.final, run_none.final) and all(
        np.array_equal(pa.times, pb.times) and np.array_equal(pa.states, pb.states)
        for pa, pb in zip(run_zero.paths, run_none.paths)
    )

    rng = np.random.default_rng(808)
    perm_cache = {n: np.array(list(permutations(range(n)))) for n in range(2, 9)}
    worst_perm = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        p = float(rng.uniform(1.0, 2.0))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
        brute = float(cost[np.arange(n)[None, :], perm_cache[n]].sum(axis=1).min())
        solved = w_p_exact(EmpiricalMeasure(a), EmpiricalMeasure(b), p) ** p * n
        worst_perm = max(worst_perm, abs(solved - brute) / max(brute, 1e-12))

    worst_1d = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(1.0, 2.0))
        a, b = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        worst_1d = max(
            worst_1d,
            abs(w_p_1d(a, b, p) - w_p_exact(EmpiricalMeasure(a), EmpiricalMeasure(b), p)),
        )

    suite = wasserstein_selftest(seed=0, instances=200)
    suite_green = all(passed for _, passed, _ in suite)
    wall = time.time() - t0
    ok = bit_equal and worst_perm <= 1e-9 and worst_1d <= 1e-9 and suite_green and wall < 120
    _verdict(
        capsys, "criterion 8 (interlacing + metric invariants)", ok,
        f"zero-rate big band bit-equal={bit_equal}; permutation minimum worst rel gap "
        f"{worst_perm:.2e} over 1000 instances; 1d gap {worst_1d:.2e}; "
        f"selftest {'green' if suite_green else 'RED'}; {wall:.0f}s < 120s",
    )


def test_criterion_09_noise_statistics(capsys):
    t0 = time.time()
    model = LevyModel(
        dim=1, split_radius=1.0,
        small=LevyBand(rate=1.0, sampler=AnnulusUniform(1, 0.0, 1.0)),
        big=LevyBand(rate=2.0, sampler=AnnulusUniform(1, 1.0, 2.0)),
    )
    reps, lam = 10_000, 2.0
    keys = StreamContext(seed=11, experiment=0, replica=0).keys(np.arange(reps), Layer.BIG)
    row = _draw_block_events(keys, np.array([0.0, 1.0]), model.big)[0]
    counts = np.bincount(row, minlength=reps)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)]) * reps
    while expected[-1] < 5 and expected.size > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected[-1] += reps - expected.sum()
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    chi2_crit = float(stats.chi2.ppf(0.99, df=expected.size - 1))

    sampler = model.big.sampler
    gen = NoiseStream(seed=13, experiment=0, replica=0, particle=0, layer=Layer.AUX).generator()
    radii = np.sort(np.linalg.norm(sampler.draw(gen, 10_000), axis=1))
    n = radii.size
    cdf = np.array([sampler.radial_cdf(r) for r in radii])
    ks = max(
        float(np.max(np.arange(1, n + 1) / n - cdf)),
        float(np.max(cdf - np.arange(0, n) / n)),
    )
    ks_crit = 1.628 / math.sqrt(n)
    wall = time.time() - t0
    ok = chi2 < chi2_crit and ks < ks_crit and wall < 60
    _verdict(
        capsys, "criterion 9 (noise statistics)", ok,
        f"count chi2 {chi2:.1f} < {chi2_crit:.1f}; mark KS {ks:.5f} < {ks_crit:.5f}; "
        f"{wall:.0f}s < 60s",
    )


def test_criterion_10_common_noise(capsys, tmp_path):
    t0 = time.time()
    grid = TimeGrid.regular(1.0, 0.05)
    ctx = StreamContext(seed=2030, experiment=EXP_MAIN, replica=0)
    levy = LevyModel(
        dim=1, split_radius=1.0,
        small=LevyBand(rate=1.0, sampler=AnnulusUniform(1, 0.0, 1.0)),
        big=LevyBand(rate=0.5, sampler=AnnulusUniform(1, 1.0, 2.0)),
    )
    frozen = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.2, gamma_g=0.3)
    plain = simulate_particle_system(frozen, 8, normal_initial(1), levy, grid, ctx, record_paths=True)
    layered = simulate_common_system(
        frozen, 8, normal_initial(1), TwoLayerNoise.single_layer(levy), grid, ctx,
        record_paths=True,
    )
    system_equal = np.array_equal(plain.final, layered.final) and all(
        np.array_equal(pa.times, pb.times) and np.array_equal(pa.states, pb.states)
        for pa, pb in zip(plain.paths, layered.sim.paths)
    )

    small_only = LevyModel(dim=1, split_radius=1.0, small=levy.small, big=None)
    linear = build_linear_meanfield(small_only, dim=1, beta=2.0, gamma_f=0.2)
    cfg = SolverConfig(paths=64, gamma=2.0, tol=1e-2, max_iter=15)
    p_plain = picard_fixed_point(linear, normal_initial(1), small_only, grid, cfg, ctx)
    p_cond = conditional_picard(
        linear, normal_initial(1), TwoLayerNoise.single_layer(small_only), grid, cfg, ctx, k=2
    )
    picard_equal = p_cond.trace == p_plain.trace and all(
        np.array_equal(fa.points, fb.points)
        for flow in p_cond.flows
        for fa, fb in zip(flow.clouds, p_plain.flow.clouds)
    )

    spec, code, res, _ = _run_config("common_conditional_poc.yaml", tmp_path)
    slope_ok = (
        code == PASS
        and res["passed"]
        and res["slope"] <= -0.35
        and res["details"]["replications"] == 32
        and spec.coeffs.dim == 1
        and spec.coeffs.beta == 2.0
    )
    wall = time.time() - t0
    ok = system_equal and picard_equal and slope_ok and wall < 1800
    _verdict(
        capsys, "criterion 10 (common noise)", ok,
        f"degenerate-layer bit-equivalences: system={system_equal}, picard={picard_equal}; "
        f"conditional slope {res['slope']:.4f} <= -0.35 with k=32 outer paths; "
        f"{wall:.0f}s < 1800s",
    )
