"""Experiment execution: dispatch a validated spec, write its outputs.

Every run produces a directory with CSV tables (full-precision floats via
``repr``), a ``result.json``, and a ``manifest.json`` recording the
config digest, package version, seed, and wall time.  Exit codes follow
the pass/fail/error convention: 0 the experiment ran and its verdict is
a pass (or it has no verdict), 1 it ran and the verdict is a fail, 2 it
could not produce a verdict at all.

The three rate experiments (weak, strong, and conditional chaos) share
one path, :func:`_run_rate`: check the design against the model, build
the reference, run the replications, and aggregate them with the kind's
``run_*`` function.  Replications are the unit of parallelism and
:func:`_rate_chunk` is the one worker: it rebuilds the model from the
raw config (coefficient closures do not cross process boundaries; the
reference's prepared law tables and the common realizations do), and
every replication draws from streams addressed by its own replica index,
so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .assumptions import check_coercivity, check_one_sided_lipschitz
from .chaos import (
    PoCConfig,
    _eval_index,
    reference_fixed_point,
    run_moment_experiment,
    run_strong_poc,
    run_weak_poc,
    strong_poc_replication,
    weak_poc_replication,
)
from .common_noise import (
    conditional_poc_replication,
    conditional_reference,
    run_conditional_poc,
    sample_common_realization,
)
from .config import ExperimentSpec, RunManifest, validate_and_build
from .errors import ConfigurationError, DivergenceError, IntegrabilityError, NonConvergenceError
from .measures import EmpiricalMeasure
from .solver import _law_table, picard_fixed_point, resolve_gamma, simulate_particle_system
from .streams import EXP_MAIN, StreamContext

__all__ = ["PASS", "FAIL", "ERROR", "run_experiment", "wasserstein_selftest"]

PASS, FAIL, ERROR = 0, 1, 2


def _f(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n")


def _witness_record(witness: dict) -> dict:
    """A falsification witness as numbers: states as lists, measures as their point arrays."""
    out = {}
    for name, value in witness.items():
        if isinstance(value, EmpiricalMeasure):
            value = value.points
        out[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _error_record(exc) -> dict:
    """``error.json`` body: type, message, and the exception's structured fields."""
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, DivergenceError):
        magnitude = exc.magnitude if math.isfinite(exc.magnitude) else None
        record.update(time=exc.time, particle=exc.particle, magnitude=magnitude)
    elif isinstance(exc, NonConvergenceError):
        record.update(trace=exc.trace, tol=exc.tol)
    elif isinstance(exc, ConfigurationError):
        record.update(violations=exc.violations)
    return record


def _poc_config(spec: ExperimentSpec) -> PoCConfig:
    exp = spec.experiment
    return PoCConfig(
        p=float(exp["p"]),
        n_grid=list(exp["n_grid"]),
        replications=int(exp["replications"]),
        q1=float(exp.get("q1", 0.5)),
        q2=float(exp.get("q2", 0.9)),
        eval_time=exp.get("eval_time"),
        reference_paths=exp.get("reference_paths"),
        slack=float(exp.get("slack", 0.15)),
    )


def _chunks(items, k):
    k = max(1, min(k, len(items)))
    bounds = np.linspace(0, len(items), k + 1).astype(int)
    return [items[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _distribute(worker, payloads, jobs):
    """Run chunk payloads in order, in-process or across workers.

    Results are flattened in payload order; replication outputs depend
    only on stream addresses, so the two paths are byte-identical.
    """
    if jobs <= 1 or len(payloads) <= 1:
        chunks = [worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            chunks = list(ex.map(worker, payloads))
    return [item for chunk in chunks for item in chunk]


def _rate_chunk(args):
    """Replication maps of one chunk of a rate experiment, in item order.

    Items are (replica, the law table of its reference flow, its common
    realization or None).  The replication functions are looked up in this module's
    namespace at call time, never through a table built at import, so a
    wrapper bound to one of their names here sees every call.
    """
    raw, items = args
    spec = validate_and_build(raw)
    pcfg = _poc_config(spec)
    noise = spec.two_layer if spec.kind == "common-noise" else spec.levy
    out = []
    for replica, flow, realization in items:
        head = (spec.coeffs, noise, spec.grid, spec.initial, pcfg, spec.solver, spec.seed, replica, flow)
        if spec.kind == "poc":
            out.append(weak_poc_replication(*head))
        elif spec.kind == "strong-poc":
            out.append(strong_poc_replication(*head))
        else:
            out.append(conditional_poc_replication(*head, realization))
    return out


def _timeseries_observer(beta, rows):
    def obs(k, t, X):
        norms = np.sqrt((X * X).sum(axis=1))
        rows.append(
            [t]
            + list(X.mean(axis=0))
            + [float(np.mean(norms**beta)) ** (1.0 / beta),
               float(np.mean((1.0 + norms**2) ** (beta / 2.0)))]
        )
    return obs


def _ts_header(dim):
    return ["time"] + [f"mean_{i}" for i in range(dim)] + ["beta_norm", "lyapunov"]


def _run_simulate(spec: ExperimentSpec, out: Path, jobs: int):
    n = spec.experiment["n"]
    rows = []
    res = simulate_particle_system(
        spec.coeffs, n, spec.initial, spec.levy, spec.grid,
        StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0), spec.solver,
        collect_clouds=False,
        observer=_timeseries_observer(spec.coeffs.beta, rows),
    )
    _write_csv(out / "timeseries.csv", _ts_header(spec.coeffs.dim),
               [[_f(v) for v in row] for row in rows])
    _write_csv(out / "final_cloud.csv", [f"x_{i}" for i in range(spec.coeffs.dim)],
               [[_f(v) for v in x] for x in res.final])
    _write_json(out / "result.json", {
        "n": n,
        "final_mean": res.final.mean(axis=0).tolist(),
        "final_beta_norm": rows[-1][spec.coeffs.dim + 1],
        "times": len(rows),
    })
    return PASS, ["timeseries.csv", "final_cloud.csv", "result.json"]


def _run_picard(spec: ExperimentSpec, out: Path, jobs: int):
    gamma = resolve_gamma(spec.solver, spec.coeffs)
    try:
        res = picard_fixed_point(
            spec.coeffs, spec.initial, spec.levy, spec.grid, spec.solver,
            StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0),
        )
        trace, converged, iterations = res.trace, True, res.iterations
        final = res.flow.at(spec.grid.horizon)
        summary = {
            "final_mean": final.mean().tolist(),
            "final_beta_norm": float(final.beta_norm(spec.coeffs.beta)),
        }
    except NonConvergenceError as exc:
        trace, converged, iterations = exc.trace, False, len(exc.trace)
        summary = {}
    _write_csv(out / "trace.csv", ["iteration", "distance"],
               [[i + 1, _f(d)] for i, d in enumerate(trace)])
    _write_json(out / "result.json", {
        "converged": converged,
        "iterations": iterations,
        "gamma": gamma,
        "tol": spec.solver.tol,
        "paths": spec.solver.paths,
        **summary,
    })
    return (PASS if converged else FAIL), ["trace.csv", "result.json"]


def _run_rate(spec: ExperimentSpec, out: Path, jobs: int):
    """Weak, strong or conditional chaos: reference, replications, one aggregation."""
    pcfg = _poc_config(spec)
    pcfg.check_against(spec.coeffs)
    _eval_index(spec.grid, pcfg.eval_time)  # an off-grid evaluation time fails before the reference
    if spec.kind == "strong-poc" and pcfg.q1 <= 0:
        raise ConfigurationError("strong experiments need q1 > 0")
    # the replications read the reference only through its prepared laws, so they get those, not the clouds
    if spec.kind == "common-noise":
        ref = conditional_reference(spec.coeffs, spec.two_layer, spec.grid, spec.initial, pcfg,
                                    spec.solver, spec.seed)
        tables = [_law_table(spec.coeffs, flow, spec.grid) for flow in ref.flows]
        items = list(zip(range(pcfg.replications), tables, ref.realizations))
    else:
        ref = reference_fixed_point(spec.coeffs, spec.initial, spec.levy, spec.grid,
                                    spec.solver, pcfg, spec.seed)
        table = _law_table(spec.coeffs, ref.flow, spec.grid)
        items = [(r, table, None) for r in range(pcfg.replications)]
    payloads = [(spec.raw, chunk) for chunk in _chunks(items, jobs)]
    reps = _distribute(_rate_chunk, payloads, jobs)
    if spec.kind == "poc":
        report = run_weak_poc(spec.coeffs, spec.grid, pcfg, ref, reps)
    elif spec.kind == "strong-poc":
        report = run_strong_poc(spec.coeffs, pcfg, ref, reps)
    else:
        report = run_conditional_poc(spec.coeffs, spec.two_layer, pcfg, ref, reps)
    header = ["n", "estimate", "se"]
    cols = [report.n_values, report.estimates, report.ses]
    if "coupling_means" in report.details:
        header += ["coupling_mean", "iid_mean"]
        cols += [report.details["coupling_means"], report.details["iid_means"]]
    # an undefined standard error (one replication) leaves its cell empty
    rows = [[row[0]] + ["" if v is None else _f(v) for v in row[1:]] for row in zip(*cols)]
    _write_csv(out / "rate.csv", header, rows)
    _write_json(out / "result.json", asdict(report))
    return (PASS if report.passed else FAIL), ["rate.csv", "result.json"]


def _run_moments(spec: ExperimentSpec, out: Path, jobs: int):
    exp = spec.experiment
    report = run_moment_experiment(
        spec.coeffs, spec.levy, spec.grid, spec.initial, exp["scalings"], spec.solver,
        spec.seed,
        separated_coercivity=bool(exp.get("separated_coercivity", False)),
        spread_bound=float(exp.get("spread_bound", 3.0)),
    )
    header = ["scaling", "initial_moment", "sup_mean_moment", "final_moment", "ratio", "sup_lyapunov"]
    rows = [
        [_f(s), _f(i0), _f(sm), _f(fm), _f(r), _f(ly)]
        for s, i0, sm, fm, r, ly in zip(
            report.scalings, report.initial_moments, report.sup_mean_moments,
            report.final_moments, report.ratios, report.sup_lyapunov,
        )
    ]
    _write_csv(out / "moments.csv", header, rows)
    _write_json(out / "result.json", asdict(report))
    return (PASS if report.passed else FAIL), ["moments.csv", "result.json"]


def _run_common(spec: ExperimentSpec, out: Path, jobs: int):
    if spec.experiment["task"] == "poc":
        return _run_rate(spec, out, jobs)
    n = spec.experiment["n"]
    rows = []
    ctx = StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0)
    real = sample_common_realization(spec.two_layer.common, ctx, spec.grid.horizon)
    res = simulate_particle_system(
        spec.coeffs, n, spec.initial, spec.levy, spec.grid, ctx, spec.solver,
        common=real,
        collect_clouds=False,
        observer=_timeseries_observer(spec.coeffs.beta, rows),
    )
    _write_csv(out / "timeseries.csv", _ts_header(spec.coeffs.dim),
               [[_f(v) for v in row] for row in rows])
    ev_rows = [["U0", _f(t)] + [_f(v) for v in m] for t, m in zip(real.u_times, real.u_marks)]
    ev_rows += [["V0", _f(t)] + [_f(v) for v in m] for t, m in zip(real.v_times, real.v_marks)]
    ev_rows.sort(key=lambda r: float(r[1]))
    _write_csv(out / "common_events.csv",
               ["band", "time"] + [f"z_{i}" for i in range(spec.coeffs.dim)], ev_rows)
    _write_json(out / "result.json", {
        "n": n,
        "common_events": real.n_events,
        "final_mean": res.final.mean(axis=0).tolist(),
    })
    return PASS, ["timeseries.csv", "common_events.csv", "result.json"]


def _run_check_assumptions(spec: ExperimentSpec, out: Path, jobs: int):
    exp = spec.experiment
    trials = int(exp.get("trials", 10_000))
    tolerance = float(exp.get("tolerance", 1e-6))
    reports, skipped = [], []
    if spec.coeffs.declared_one_sided is not None:
        reports.append(check_one_sided_lipschitz(
            spec.coeffs, spec.levy, spec.coeffs.declared_one_sided,
            variant=exp.get("variant", "A1"), p=exp.get("p"),
            trials=trials, seed=spec.seed, tolerance=tolerance,
        ))
    else:
        skipped.append("one-sided: family declares no constant")
    if spec.coeffs.declared_coercivity is not None:
        reports.append(check_coercivity(
            spec.coeffs, spec.levy, spec.coeffs.declared_coercivity,
            variant=exp.get("coercivity_variant", "A2"), levy_common=spec.common,
            trials=trials, seed=spec.seed, tolerance=tolerance,
        ))
    else:
        skipped.append("coercivity: family declares no constant")
    for rep in reports:
        print(rep)
    for note in skipped:
        print(f"[SKIP] {note}")
    _write_json(out / "result.json", {
        "reports": [dict(asdict(r), witness=_witness_record(r.witness)) for r in reports],
        "skipped": skipped,
        "passed": all(r.passed for r in reports) and bool(reports),
    })
    code = PASS if reports and all(r.passed for r in reports) else FAIL
    return code, ["result.json"]


_DISPATCH = {
    "simulate": _run_simulate,
    "picard": _run_picard,
    "poc": _run_rate,
    "strong-poc": _run_rate,
    "moments": _run_moments,
    "common-noise": _run_common,
    "check-assumptions": _run_check_assumptions,
}


def run_experiment(spec: ExperimentSpec, out_dir, jobs: int = 1) -> int:
    """Execute one spec, writing outputs and a manifest into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.start(spec, jobs)
    t0 = time.time()
    try:
        code, outputs = _DISPATCH[spec.kind](spec, out, jobs)
    except (ConfigurationError, DivergenceError, IntegrabilityError, NonConvergenceError) as exc:
        _write_json(out / "error.json", _error_record(exc))
        code, outputs = ERROR, ["error.json"]
    manifest.wall_seconds = round(time.time() - t0, 3)
    manifest.exit_code = code
    manifest.outputs = sorted(outputs) + ["manifest.json"]
    manifest.write(out)
    return code


def wasserstein_selftest(seed: int = 0, instances: int = 200) -> list[tuple[str, bool, str]]:
    """Metric sanity battery for the transport-distance implementations.

    Checks, on random clouds: agreement of the 1D sorted coupling with
    the assignment solver, agreement of the assignment solver with the
    exhaustive permutation minimum at small n, the metric axioms
    (identity, symmetry, triangle inequality), and exact translation
    invariance on dyadic inputs.  Returns (name, passed, detail) rows.
    """
    from itertools import permutations

    from .wasserstein import w_p_1d, w_p_exact

    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 33))
        p = float(rng.uniform(1.0, 2.0))
        a, b = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        d1 = w_p_1d(a, b, p)
        d2 = w_p_exact(EmpiricalMeasure(a), EmpiricalMeasure(b), p)
        worst = max(worst, abs(d1 - d2))
    results.append(("1d-sorted-vs-assignment", worst <= 1e-9, f"worst gap {worst:.2e}"))

    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        p = float(rng.uniform(1.0, 2.0))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
        brute = min(
            sum(cost[i, pi] for i, pi in enumerate(perm)) for perm in permutations(range(n))
        )
        solved = w_p_exact(EmpiricalMeasure(a), EmpiricalMeasure(b), p) ** p * n
        worst = max(worst, abs(solved - brute) / max(brute, 1e-300))
    results.append(("assignment-vs-permutation-minimum", worst <= 1e-9, f"worst rel gap {worst:.2e}"))

    ok, detail = True, ""
    for _ in range(instances):
        n, d = int(rng.integers(2, 17)), int(rng.integers(1, 4))
        p = float(rng.uniform(1.0, 2.0))
        a, b, c = (EmpiricalMeasure(rng.normal(size=(n, d))) for _ in range(3))
        dab, dba = w_p_exact(a, b, p), w_p_exact(b, a, p)
        daa = w_p_exact(a, a, p)
        dac, dcb = w_p_exact(a, c, p), w_p_exact(c, b, p)
        if daa != 0.0 or abs(dab - dba) > 1e-12 or dab > dac + dcb + 1e-12:
            ok, detail = False, f"axiom violated: daa={daa}, dab={dab}, dba={dba}, tri={dac + dcb}"
            break
    results.append(("metric-axioms", ok, detail or f"{instances} random triples"))

    ok, detail = True, ""
    for _ in range(instances):
        n, d = int(rng.integers(2, 17)), int(rng.integers(1, 4))
        # dyadic points and shift keep the translated costs exactly representable
        a = rng.integers(-8, 9, size=(n, d)) / 8.0
        b = rng.integers(-8, 9, size=(n, d)) / 8.0
        shift = rng.integers(-8, 9, size=(1, d)) / 8.0
        d0 = w_p_exact(EmpiricalMeasure(a), EmpiricalMeasure(b), 2.0)
        d1 = w_p_exact(EmpiricalMeasure(a + shift), EmpiricalMeasure(b + shift), 2.0)
        if d0 != d1:
            ok, detail = False, f"translation changed distance by {d1 - d0!r}"
            break
    results.append(("translation-invariance-dyadic", ok, detail or f"{instances} dyadic shifts"))
    return results
