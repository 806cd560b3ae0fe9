"""Propagation-of-chaos rate measurements.

The predicted decay of ``E W_p^p`` between the interacting cloud and the
limit law is the piecewise rate

    ``n^-(1 - p/beta)``  in low dimension or when the beta-moment is weak,
    ``n^-(p/d)``         when dimension wins,

switching at ``beta = d p / (d - p)`` (three-dimensional case split at
``p = 3/2``); both branches agree on the switching surface.
:func:`phi_rate` evaluates the exponent.  The ``*_poc_replication``
functions measure one replication over the whole n-grid; the job runner
fans them out, and the ``run_*`` functions aggregate their maps through
:func:`rate_report` into a slope measured against the exponent.

The weak estimate follows the coupling decomposition: simulate the
interacting system and, on the same noise streams, n independent copies
of the limit equation driven by a fixed-point reference flow; then

    ``W_p^p(interacting cloud, coupled copies)   (coupling term)
    + W_p^p(coupled copies, fresh copies)        (i.i.d. term)``

where the fresh copies are a second, independent batch of limit copies.
The i.i.d. term stands in for the distance to the true limit law, which
is not available as an equal-size cloud; it obeys the same rate.  The
reference flow is the interacting system on the reserved reference
streams, with several times the largest particle count: the fixed point
of the law map with common random numbers on those streams, exact at
every grid time.  Its own sampling error is part of the estimate, not
corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigurationError
from .initial import InitialLaw
from .measures import lyapunov_diagnostic
from .noise import LevyModel
from .solver import (
    PicardResult,
    SolverConfig,
    TimeGrid,
    _coupled,
    _draw_tape,
    _simulate_system,
    simulate_particle_system,
)
from .streams import EXP_FRESH_COPIES, EXP_MAIN, EXP_REFERENCE, StreamContext
from .wasserstein import w_p

__all__ = [
    "phi_rate",
    "fit_loglog_slope",
    "PoCConfig",
    "RateReport",
    "MomentReport",
    "run_weak_poc",
    "run_strong_poc",
    "run_moment_experiment",
    "rate_report",
    "reference_fixed_point",
    "coupling_terms",
]

DEFAULT_SLOPE_SLACK = 0.15


def phi_rate(p: float, beta: float, d: int) -> float:
    """Exponent of the n-decay of ``E W_p^p`` between cloud and limit.

    Requires ``1 <= p < beta <= 2`` and integer ``d >= 1``.  On the
    boundary ``beta = d p / (d - p)`` both branches coincide, and the
    dimension branch is used by convention.
    """
    if int(d) != d or d < 1:
        raise ConfigurationError(f"dimension must be a positive integer, got {d}")
    if not (1.0 <= p < beta <= 2.0):
        raise ConfigurationError(f"need 1 <= p < beta <= 2, got p={p}, beta={beta}")
    d = int(d)
    moment_branch = -(1.0 - p / beta)
    if d <= 2:
        return moment_branch
    if d == 3:
        if p >= 1.5:
            return moment_branch
        return moment_branch if beta < 3.0 * p / (3.0 - p) else -p / d
    return moment_branch if beta < d * p / (d - p) else -p / d


def fit_loglog_slope(
    n_values: Sequence[int],
    estimates: Sequence[float],
    ses: Optional[Sequence[float]] = None,
) -> tuple[float, float]:
    """Weighted least-squares slope of ``log estimate`` against ``log n``.

    Weights are inverse delta-method variances ``(se / estimate)^-2``;
    with no (or degenerate) standard errors the fit is ordinary least
    squares and the slope error comes from the residuals.  Estimates must
    be positive; at least three points are required.
    """
    n_values = np.asarray(n_values, dtype=float)
    y_raw = np.asarray(estimates, dtype=float)
    if n_values.size < 3:
        raise ConfigurationError(f"need >= 3 grid points for a slope, got {n_values.size}")
    if np.any(np.diff(n_values) <= 0):
        raise ConfigurationError("particle counts must be strictly increasing")
    if np.any(y_raw <= 0) or not np.all(np.isfinite(y_raw)):
        raise ConfigurationError("estimates must be positive and finite for a log-log fit")
    x = np.log(n_values)
    y = np.log(y_raw)
    use_known_var = ses is not None
    if use_known_var:
        ses = np.asarray(ses, dtype=float)
        if np.any(ses <= 0) or not np.all(np.isfinite(ses)):
            use_known_var = False
    if use_known_var:
        w = (y_raw / ses) ** 2
    else:
        w = np.ones_like(x)
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx <= 0:
        raise ConfigurationError("degenerate design: all n equal after weighting")
    slope = float((w * (x - xbar) * (y - ybar)).sum() / sxx)
    if use_known_var:
        slope_se = float(math.sqrt(1.0 / sxx))
    else:
        resid = y - ybar - slope * (x - xbar)
        dof = max(x.size - 2, 1)
        slope_se = float(math.sqrt((resid**2).sum() / dof / sxx))
    return slope, slope_se


@dataclass(frozen=True)
class PoCConfig:
    """Chaos-experiment design: grid of particle counts and estimator knobs."""

    p: float
    n_grid: Sequence[int]
    replications: int
    q1: float = 0.5
    q2: float = 0.9
    eval_time: Optional[float] = None
    reference_paths: Optional[int] = None
    slack: float = DEFAULT_SLOPE_SLACK

    def __post_init__(self):
        problems = []
        if self.p < 1.0:
            problems.append(f"p must be >= 1, got {self.p}")
        ns = list(self.n_grid)
        if len(ns) < 3:
            problems.append(f"need >= 3 particle counts, got {ns}")
        elif any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 2:
            problems.append(f"particle counts must be >= 2 and strictly increasing, got {ns}")
        if self.replications < 1:
            problems.append(f"replications must be >= 1, got {self.replications}")
        if not 0.0 <= self.q1 < self.q2 < 1.0:
            problems.append(f"need 0 <= q1 < q2 < 1, got q1={self.q1}, q2={self.q2}")
        if self.slack < 0:
            problems.append(f"slack must be >= 0, got {self.slack}")
        if problems:
            raise ConfigurationError(problems)

    def check_against(self, coeffs: CoefficientSet):
        if not coeffs.measure_free_small:
            raise ConfigurationError(
                "chaos experiments need a measure-free small-jump coefficient"
            )
        if not (1.0 < coeffs.beta <= 2.0 and self.p < coeffs.beta):
            raise ConfigurationError(
                f"chaos experiments need 1 <= p < beta, beta in (1, 2]; got p={self.p}, beta={coeffs.beta}"
            )


@dataclass
class RateReport:
    """Measured decay against the predicted exponent.

    ``estimates`` are replication means of the per-run statistic at each
    particle count, ``ses`` their across-replication standard errors
    (None each when there is a single replication).
    The verdict compares the fitted slope to ``theoretical + slack``
    (one-sided: faster decay than predicted also passes).
    """

    kind: str
    n_values: list[int]
    estimates: list[float]
    ses: list[Optional[float]]
    slope: float
    slope_se: float
    theoretical: float
    slack: float
    passed: bool
    details: dict = field(default_factory=dict)

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.kind}: slope {self.slope:.4f} (se {self.slope_se:.4f}) "
            f"vs predicted {self.theoretical:.4f} + slack {self.slack}"
        )


def _eval_index(grid: TimeGrid, eval_time: Optional[float]) -> int:
    if eval_time is None:
        return grid.n_steps
    idx = int(np.argmin(np.abs(grid.times - eval_time)))
    if abs(grid.times[idx] - eval_time) > 1e-9:
        raise ConfigurationError(f"evaluation time {eval_time} is not a grid time")
    return idx


def _reference_flows(coeffs, levy, grid, initial_sampler, solver_cfg, poc_cfg, seed, commons) -> list:
    """Flows of the interacting system on the reserved reference block, one per entry of ``commons``.

    The block's tape holds ``poc_cfg.reference_paths`` particles, by
    default four times the largest particle count, so the reference's own
    sampling error decays at least as fast as the statistic it
    calibrates.  It is drawn once; every run reads it, inside its entry's
    common realization (None: no common layer).
    """
    m_ref = poc_cfg.reference_paths or 4 * max(poc_cfg.n_grid)
    ctx = StreamContext(seed=seed, experiment=EXP_REFERENCE, replica=0)
    tape = _draw_tape(coeffs, levy, grid, ctx, initial_sampler, m_ref)
    return [
        _simulate_system(coeffs, levy, grid, [(tape, None)], solver_cfg, common=common, collect_clouds=True)[0].flow
        for common in commons
    ]


def reference_fixed_point(coeffs, initial_sampler, levy, grid, solver_cfg, poc_cfg, seed) -> PicardResult:
    """Reference flow: the interacting system on the reserved reference block.

    That run is the common-random-numbers Picard fixed point on these
    streams, bit for bit at every grid time (see :mod:`levyfield.solver`),
    returned as a one-pass :class:`PicardResult` with an empty trace;
    ``gamma``, ``tol`` and ``max_iter`` play no part.
    """
    [flow] = _reference_flows(coeffs, levy, grid, initial_sampler, solver_cfg, poc_cfg, seed, [None])
    return PicardResult(flow=flow, trace=[], iterations=1, initial_cloud=flow.clouds[0])


def weak_poc_replication(
    coeffs,
    levy,
    grid,
    initial_sampler,
    poc_cfg: PoCConfig,
    solver_cfg: SolverConfig,
    seed: int,
    replica: int,
    reference_flow,
) -> dict[int, tuple[float, float]]:
    """Coupling and i.i.d. terms for one replication over the whole n-grid.

    This is the unit of work the job queue distributes; it touches only
    streams addressed by ``replica``, so results are independent of how
    replications are batched over workers.  ``reference_flow`` is the
    reference :class:`~levyfield.measures.MeasureFlow` or its prepared
    law table (``solver._law_table``), which is what workers receive.
    """
    return _coupling_replication(
        coeffs, levy, grid, initial_sampler, poc_cfg, solver_cfg, seed, replica, reference_flow, None
    )


def _coupling_replication(
    coeffs, levy, grid, initial_sampler, poc_cfg, solver_cfg, seed, replica, reference_flow, common
) -> dict[int, tuple[float, float]]:
    """Map n -> :func:`coupling_terms` along the n-grid, every run inside ``common`` (or none).

    The tapes of the replica's main and fresh-copy blocks are drawn once
    for the largest particle count.  One pass runs the interacting
    system of every count on its prefix of the main tape, the coupled
    limit copies against ``reference_flow`` on the whole main tape and
    the fresh copies on the whole fresh one; every count reads the
    prefixes of both copy blocks.
    """
    t_idx = _eval_index(grid, poc_cfg.eval_time)
    main, fresh = (
        _draw_tape(coeffs, levy, grid, StreamContext(seed=seed, experiment=block, replica=replica),
                   initial_sampler, max(poc_cfg.n_grid))
        for block in (EXP_MAIN, EXP_FRESH_COPIES)
    )
    blocks = [(main.head(n), None) for n in poc_cfg.n_grid] + [(main, reference_flow), (fresh, reference_flow)]
    *inters, limit, fresh_copies = _simulate_system(coeffs, levy, grid, blocks, solver_cfg, common=common,
                                                    collect_states=True)
    return {
        n: coupling_terms(n, poc_cfg.p, t_idx, inter, (limit, fresh_copies), common=common)
        for n, inter in zip(poc_cfg.n_grid, inters)
    }


def coupling_terms(n, p, t_idx, inter, copies, common=None):
    """One (coupling, iid) pair of ``W_p^p`` terms at grid index ``t_idx`` for ``n`` particles.

    ``inter`` is the interacting run of ``n`` particles on the replica's
    main tape; ``copies`` holds the coupled limit copies (run on that
    tape) and the fresh ones, each cut here to their first ``n`` rows.
    ``common`` is the realization all three ran inside (None: none), so
    the comparison stays inside a single common path.  The terms read
    only the states; the benchmark's tracer reads ``n`` and ``common``
    from this call to count the work of each particle count.
    """
    limit, fresh = (run.head(n) for run in copies)
    coupling = w_p(inter.states[t_idx], limit.states[t_idx], p) ** p
    iid = w_p(limit.states[t_idx], fresh.states[t_idx], p) ** p
    return coupling, iid


def run_weak_poc(
    coeffs: CoefficientSet,
    grid: TimeGrid,
    poc_cfg: PoCConfig,
    reference,
    replication_results: list,
) -> RateReport:
    """Weak propagation-of-chaos slope via the coupling decomposition.

    Per replication and particle count: the interacting cloud, n limit
    copies on the same streams (coupling term), and n fresh limit copies
    (i.i.d. term) are compared at the evaluation time; the two terms add
    to the per-replication statistic.  ``replication_results`` are the
    :func:`weak_poc_replication` maps in replica order, all run against
    the flow of the fixed point ``reference``.
    """
    eval_time = float(grid.times[_eval_index(grid, poc_cfg.eval_time)])
    theo = phi_rate(poc_cfg.p, coeffs.beta, coeffs.dim)
    return rate_report("weak_poc", poc_cfg, theo, reference, replication_results, {"eval_time": eval_time})


def rate_report(
    kind: str, poc_cfg: PoCConfig, theoretical: float, reference, replication_results: list, details: dict
) -> RateReport:
    """Aggregate per-replication maps over the n-grid into a RateReport.

    A map goes n -> statistic, or n -> (coupling term, iid term), whose
    sum is the statistic and whose means (and iid standard errors) go to
    the details.  The statistic is averaged across replications, with
    across-replication standard errors feeding the weighted slope fit;
    the verdict compares the slope to ``theoretical + slack``.
    """
    n_values = list(poc_cfg.n_grid)
    values = np.array([[rep[n] for rep in replication_results] for n in n_values])  # (n_grid, reps[, 2])
    details = dict(
        details,
        replications=values.shape[1],
        reference_paths=len(reference.initial_cloud),
    )
    if values.ndim == 3:
        couplings, iids = values.transpose(2, 0, 1).copy()
        values = couplings + iids
        details.update(
            coupling_means=couplings.mean(axis=1).tolist(),
            iid_means=iids.mean(axis=1).tolist(),
            iid_ses=_replication_ses(iids),
        )
    estimates = values.mean(axis=1)
    ses = _replication_ses(values)
    slope, slope_se = fit_loglog_slope(n_values, estimates, ses)
    return RateReport(
        kind=kind,
        n_values=n_values,
        estimates=estimates.tolist(),
        ses=ses or [None] * len(n_values),
        slope=slope,
        slope_se=slope_se,
        theoretical=theoretical,
        slack=poc_cfg.slack,
        passed=slope <= theoretical + poc_cfg.slack,
        details=details,
    )


def _replication_ses(stats: np.ndarray) -> Optional[list[float]]:
    """Across-replication standard errors of ``(n_grid, reps)`` statistics; None for one replication."""
    reps = stats.shape[1]
    return (stats.std(axis=1, ddof=1) / math.sqrt(reps)).tolist() if reps > 1 else None


def strong_poc_replication(
    coeffs, levy, grid, initial_sampler, poc_cfg, solver_cfg, seed, replica, reference_flow
) -> dict[int, float]:
    """Per-replication strong statistic ``mean_i sup_t |gap_i|^(p q1)`` on the n-grid.

    One tape of the replica's main streams, drawn for the largest count,
    drives one pass: the interacting system of every count on its prefix
    and the limit copies on the whole tape; each pair reads the copies'
    first n rows.
    """
    ctx = StreamContext(seed=seed, experiment=EXP_MAIN, replica=replica)
    tape = _draw_tape(coeffs, levy, grid, ctx, initial_sampler, max(poc_cfg.n_grid))
    blocks = [(tape.head(n), None) for n in poc_cfg.n_grid] + [(tape, reference_flow)]
    *inters, limit = _simulate_system(coeffs, levy, grid, blocks, solver_cfg, collect_states=True, record_paths=True)
    return {
        n: float(np.mean(_coupled(inter, limit.head(n)).sup_errors ** (poc_cfg.p * poc_cfg.q1)))
        for n, inter in zip(poc_cfg.n_grid, inters)
    }


def run_strong_poc(
    coeffs: CoefficientSet,
    poc_cfg: PoCConfig,
    reference,
    replication_results: list,
) -> RateReport:
    """Pathwise (strong) chaos slope from synchronously coupled pairs.

    The statistic is ``mean_i sup_t |X_i - Y_i|^(p q1)`` with the
    supremum over the realized grid, one :func:`strong_poc_replication`
    map per replication; its predicted decay is ``q1 *`` the weak
    exponent, with the ``q2 / (q2 - q1)`` constant recorded in the
    details (it scales the bound, not the slope).
    """
    theo = poc_cfg.q1 * phi_rate(poc_cfg.p, coeffs.beta, coeffs.dim)
    return rate_report("strong_poc", poc_cfg, theo, reference, replication_results, {
        "q1": poc_cfg.q1,
        "q2": poc_cfg.q2,
        "tail_constant": poc_cfg.q2 / (poc_cfg.q2 - poc_cfg.q1),
    })


@dataclass
class MomentReport:
    """Affine moment boundedness across initial scalings.

    ``ratio`` per scaling is ``sup_t mean|X_t|^beta / (1 + mean|X_0|^beta)``;
    the verdict requires the largest-to-smallest ratio spread to stay
    under ``spread_bound``.  ``mean_sup_moment`` (the pathwise running
    supremum averaged over particles) is only reported when the stronger
    separated coercivity form is declared to hold.
    """

    scalings: list[float]
    initial_moments: list[float]
    final_moments: list[float]
    sup_mean_moments: list[float]
    sup_lyapunov: list[float]
    ratios: list[float]
    spread: float
    spread_bound: float
    passed: bool
    mean_sup_moments: Optional[list[float]] = None

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] moment ratios {['%.3f' % r for r in self.ratios]}, spread {self.spread:.3f}"


def run_moment_experiment(
    coeffs: CoefficientSet,
    levy: LevyModel,
    grid: TimeGrid,
    initial_sampler: InitialLaw,
    scalings: Sequence[float],
    solver_cfg: SolverConfig,
    seed: int,
    *,
    separated_coercivity: bool = False,
    spread_bound: float = 3.0,
) -> MomentReport:
    """Scale the initial condition and watch the moment functionals.

    Runs the interacting system once per scaling with ``solver_cfg.paths``
    particles, tracking ``mean |X_t|^beta`` and the ensemble Lyapunov
    average at every grid time.  Under coercivity the supremum over time
    is affine in the initial moment, so the ratios are flat in the
    scaling; an anti-coercive drift instead blows up and surfaces as a
    :class:`~levyfield.errors.DivergenceError`.
    """
    if len(list(scalings)) < 2:
        raise ConfigurationError("need at least two initial scalings")
    beta = coeffs.beta
    rows = {k: [] for k in ("init", "final", "supmean", "suplyap", "meansup")}
    for s_idx, s in enumerate(scalings):
        tracker = {"supmean": -math.inf, "suplyap": -math.inf, "init": None, "final": None, "persup": None}

        def observer(k, t, X):
            norms_b = np.sqrt((X * X).sum(axis=1)) ** beta
            m = float(norms_b.mean())
            lyap = lyapunov_diagnostic(X, beta)
            if k == 0:
                tracker["init"] = m
                tracker["persup"] = norms_b.copy()
            else:
                np.maximum(tracker["persup"], norms_b, out=tracker["persup"])
            tracker["supmean"] = max(tracker["supmean"], m)
            tracker["suplyap"] = max(tracker["suplyap"], lyap)
            tracker["final"] = m

        ctx = StreamContext(seed=seed, experiment=EXP_MAIN, replica=s_idx)
        simulate_particle_system(
            coeffs, solver_cfg.paths, initial_sampler.scaled(s), levy, grid, ctx, solver_cfg,
            collect_clouds=False, observer=observer,
        )
        rows["init"].append(tracker["init"])
        rows["final"].append(tracker["final"])
        rows["supmean"].append(tracker["supmean"])
        rows["suplyap"].append(tracker["suplyap"])
        rows["meansup"].append(float(tracker["persup"].mean()))
    ratios = [sm / (1.0 + i0) for sm, i0 in zip(rows["supmean"], rows["init"])]
    spread = max(ratios) / min(ratios)
    return MomentReport(
        scalings=[float(s) for s in scalings],
        initial_moments=rows["init"],
        final_moments=rows["final"],
        sup_mean_moments=rows["supmean"],
        sup_lyapunov=rows["suplyap"],
        ratios=ratios,
        spread=spread,
        spread_bound=spread_bound,
        passed=spread < spread_bound,
        mean_sup_moments=rows["meansup"] if separated_coercivity else None,
    )
