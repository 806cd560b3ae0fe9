"""A second jump layer shared by every particle.

Each particle keeps its own idiosyncratic streams, and the whole system
additionally reacts to one common two-band realization: small common
jumps enter compensated through ``common_small``, big ones uncompensated
through ``common_big``, interlaced with the idiosyncratic events (ties
broken idiosyncratic-first).  Conditioning on the common event history
turns the limit law into a random measure; its surrogate here is nested
Monte Carlo: k outer common paths, each carrying an m-particle cloud.

Degeneracy is structural: a zero-rate common layer leaves the engine on
the exact code path of the single-layer system, so the reductions to
``simulate_particle_system``, ``picard_fixed_point`` and the weak chaos
replication are bit-identical, not merely close.  The conditional chaos
experiment reuses the weak one's replication and aggregation
(``chaos.rate_report``) with one common path per replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chaos import PoCConfig, RateReport, _coupling_replication, _reference_tape, phi_rate, rate_report
from .coefficients import CoefficientSet
from .errors import ConfigurationError, NonConvergenceError
from .initial import InitialSampler
from .measures import EmpiricalMeasure, MeasureFlow
from .noise import LevyModel, _draw_poisson_events, no_noise
from .solver import (
    SimResult,
    SolverConfig,
    TimeGrid,
    _draw_tape,
    _simulate_system,
    resolve_gamma,
)
from .streams import EXP_MAIN, Layer, StreamContext
from .wasserstein import _w_auto

__all__ = [
    "TwoLayerNoise",
    "CommonRealization",
    "sample_common_realization",
    "CommonSimResult",
    "simulate_common_system",
    "ConditionalPicardResult",
    "conditional_distance",
    "conditional_picard",
    "conditional_reference",
    "conditional_poc_replication",
    "run_conditional_poc",
]


@dataclass(frozen=True)
class TwoLayerNoise:
    """Idiosyncratic noise model plus the model of the shared layer.

    Independence of the layers is by stream-id construction: common draws
    come from the dedicated common layers at particle id 0, which no
    idiosyncratic stream ever touches.
    """

    idio: LevyModel
    common: LevyModel

    def __post_init__(self):
        if self.idio.dim != self.common.dim:
            raise ConfigurationError(
                f"layer dims differ: idiosyncratic {self.idio.dim}, common {self.common.dim}"
            )

    @property
    def dim(self) -> int:
        return self.idio.dim

    @staticmethod
    def single_layer(idio: LevyModel) -> "TwoLayerNoise":
        """Degenerate pairing with an event-free common layer."""
        return TwoLayerNoise(idio=idio, common=no_noise(idio.dim))


@dataclass(frozen=True)
class CommonRealization:
    """One realized common path: all its events over the horizon.

    ``u_*`` hold the small-band events, ``v_*`` the big-band ones, times
    sorted ascending with marks row-aligned.  The realization is the
    whole conditioning history: every simulation handed the same object
    sees identical common events.
    """

    model: LevyModel
    u_times: np.ndarray
    u_marks: np.ndarray
    v_times: np.ndarray
    v_marks: np.ndarray

    @property
    def n_events(self) -> int:
        return int(self.u_times.size + self.v_times.size)

    @property
    def empty(self) -> bool:
        return self.n_events == 0


def sample_common_realization(
    model: LevyModel, stream_ctx: StreamContext, horizon: float
) -> CommonRealization:
    """Draw one common path from the context's dedicated common streams.

    Both bands are sampled over the full horizon up front (count, then
    sorted uniform arrival times, then marks), from the common layers at
    particle id 0.  A zero-rate band draws nothing, so deleting a band
    and zeroing its rate produce the same realization.
    """
    if horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
    d = model.dim
    u_times, u_marks = np.empty(0), np.empty((0, d))
    v_times, v_marks = np.empty(0), np.empty((0, d))
    if model.small is not None and model.small.rate > 0.0:
        gen = stream_ctx.generator(0, Layer.COMMON_SMALL)
        u_times, u_marks = _draw_poisson_events(gen, 0.0, horizon, model.small)
    if model.big is not None and model.big.rate > 0.0:
        gen = stream_ctx.generator(0, Layer.COMMON_BIG)
        v_times, v_marks = _draw_poisson_events(gen, 0.0, horizon, model.big)
    return CommonRealization(
        model=model, u_times=u_times, u_marks=u_marks, v_times=v_times, v_marks=v_marks
    )


@dataclass
class CommonSimResult:
    """Particle-system output plus the single shared-event log."""

    sim: SimResult
    realization: CommonRealization

    @property
    def flow(self) -> Optional[MeasureFlow]:
        return self.sim.flow

    @property
    def final(self) -> np.ndarray:
        return self.sim.final


def simulate_common_system(
    coeffs: CoefficientSet,
    n: int,
    initial_sampler: InitialSampler,
    noise: TwoLayerNoise,
    grid: TimeGrid,
    stream_ctx: StreamContext,
    config: Optional[SolverConfig] = None,
    *,
    realization: Optional[CommonRealization] = None,
    particle_ids: Optional[Sequence[int]] = None,
    record_paths: bool = False,
    collect_clouds: bool = True,
    observer=None,
) -> CommonSimResult:
    """Interacting system with every particle fed the same common events.

    The realization is sampled from the context's common streams unless
    one is passed in (pass one to drive several systems by the same
    conditioning path).  Common jumps show up in the per-particle jump
    logs with band tag ``V0``; simultaneous idiosyncratic and common
    events apply idiosyncratic-first.
    """
    config = config or SolverConfig()
    if realization is None:
        realization = sample_common_realization(noise.common, stream_ctx, grid.horizon)
    tape = _draw_tape(coeffs, noise.idio, grid, stream_ctx, initial_sampler, n, particle_ids)
    sim = _simulate_system(
        coeffs, noise.idio, grid, tape, config, interacting=True, common=realization,
        record_paths=record_paths, collect_clouds=collect_clouds, observer=observer,
    )
    return CommonSimResult(sim=sim, realization=realization)


def conditional_distance(
    new_flows: Sequence[MeasureFlow],
    old_flows: Sequence[MeasureFlow],
    beta: float,
    eta: float,
    *,
    metric: str = "exact",
) -> float:
    """Discounted sup of the across-path power mean of flow distances.

    ``sup_t e^(-eta t) (mean_j W_beta^beta(new_j_t, old_j_t))^(1/beta)``
    over the common grid.  The power mean of equal values is returned
    exactly (no round trip through the beta-th power), so a family of
    identical paths reduces bit-exactly to the single-flow distance.
    """
    if len(new_flows) != len(old_flows) or not new_flows:
        raise ConfigurationError("need equally many (>=1) new and old flows")
    if eta < 0:
        raise ConfigurationError(f"eta must be >= 0, got {eta}")
    times = new_flows[0].times
    profiles = []
    for new, old in zip(new_flows, old_flows):
        if not (np.array_equal(new.times, times) and np.array_equal(old.times, times)):
            raise ConfigurationError("flow grids differ; distances need a common grid")
        profiles.append([_w_auto(a, b, beta, metric, None) for a, b in zip(new.clouds, old.clouds)])
    k = len(profiles)
    best = 0.0
    for idx, t in enumerate(times):
        vals = [pr[idx] for pr in profiles]
        if k == 1 or all(v == vals[0] for v in vals):
            avg = vals[0]
        else:
            avg = (math.fsum(v**beta for v in vals) / k) ** (1.0 / beta)
        val = math.exp(-eta * t) * avg
        if val > best:
            best = val
    return best


@dataclass
class ConditionalPicardResult:
    """Fixed point of the conditional law map: one flow per common path."""

    flows: list[MeasureFlow]
    realizations: list[CommonRealization]
    trace: list[float]
    iterations: int
    initial_cloud: EmpiricalMeasure


def conditional_picard(
    coeffs: CoefficientSet,
    initial_sampler: InitialSampler,
    noise: TwoLayerNoise,
    grid: TimeGrid,
    config: SolverConfig,
    stream_ctx: StreamContext,
    *,
    realizations: Optional[Sequence[CommonRealization]] = None,
    k: Optional[int] = None,
    eta: Optional[float] = None,
    initial_flows: Optional[Sequence[MeasureFlow]] = None,
) -> ConditionalPicardResult:
    """Iterate the conditional law map over k frozen common paths at once.

    Pass ``realizations`` to pin the common paths, or ``k`` to sample
    that many from replica offsets of ``stream_ctx``.  All paths share
    one block of inner streams (initial draws and idiosyncratic noise),
    read from one event tape (one per pass without ``config.crn``),
    which is common-random-numbers across paths: cross-path spread then
    isolates the common layer's effect, and an event-free common layer
    collapses every path onto the single-layer fixed point bit-exactly.
    Stops when the across-path distance drops below ``config.tol``;
    raises :class:`NonConvergenceError` with the trace otherwise.
    """
    if realizations is None:
        if k is None:
            raise ConfigurationError("pass realizations or a path count k")
        realizations = [
            sample_common_realization(
                noise.common, stream_ctx.with_(replica=stream_ctx.replica + j), grid.horizon
            )
            for j in range(k)
        ]
    realizations = list(realizations)
    k = len(realizations)
    if k < 1:
        raise ConfigurationError("need at least one common path")
    m = config.paths
    if m < 2:
        raise ConfigurationError(f"conditional clouds need >= 2 member particles, got {m}")
    eta_val = float(eta) if eta is not None else resolve_gamma(config, coeffs)
    if initial_flows is not None:
        flows = list(initial_flows)
        if len(flows) != k:
            raise ConfigurationError(f"{k} common paths but {len(flows)} starting flows")
        for fl in flows:
            if not np.array_equal(fl.times, grid.times):
                raise ConfigurationError("initial flow grid must match the solver grid")
    tape = _draw_tape(coeffs, noise.idio, grid, stream_ctx, initial_sampler, m)
    initial_cloud = EmpiricalMeasure(tape.x0)
    if initial_flows is None:
        flows = [MeasureFlow.constant(grid.times, initial_cloud) for _ in range(k)]

    trace: list[float] = []
    for it in range(config.max_iter):
        if it and not config.crn:
            ctx_it = stream_ctx.with_(replica=stream_ctx.replica + it)
            tape = _draw_tape(coeffs, noise.idio, grid, ctx_it, initial_cloud.points, m)
        new_flows = [
            _simulate_system(
                coeffs, noise.idio, grid, tape, config,
                flow=flows[j], common=realizations[j], collect_clouds=True,
            ).flow
            for j in range(k)
        ]
        dist = conditional_distance(new_flows, flows, coeffs.beta, eta_val, metric=config.flow_metric)
        trace.append(dist)
        flows = new_flows
        if dist < config.tol:
            return ConditionalPicardResult(
                flows=flows,
                realizations=realizations,
                trace=trace,
                iterations=it + 1,
                initial_cloud=initial_cloud,
            )
    raise NonConvergenceError(trace, config.tol)


def conditional_reference(
    coeffs: CoefficientSet,
    noise: TwoLayerNoise,
    grid: TimeGrid,
    initial_sampler: InitialSampler,
    poc_cfg: PoCConfig,
    solver_cfg: SolverConfig,
    seed: int,
) -> ConditionalPicardResult:
    """Common paths plus their conditional reference flows for a chaos run.

    Path j's events come from the main block at replica j, so the
    replication that measures path j later reuses exactly this
    realization.  Its flow is the interacting system inside that
    realization on the one tape of the reserved reference block that all
    paths share: the common-random-numbers fixed point of
    :func:`conditional_picard`, bit for bit, so a silent common layer
    gives the plain reference.  One pass, empty trace.
    """
    realizations = [
        sample_common_realization(
            noise.common, StreamContext(seed=seed, experiment=EXP_MAIN, replica=j), grid.horizon
        )
        for j in range(poc_cfg.replications)
    ]
    tape = _reference_tape(coeffs, noise.idio, grid, initial_sampler, poc_cfg, seed)
    flows = [
        _simulate_system(
            coeffs, noise.idio, grid, tape, solver_cfg, interacting=True, common=realization, collect_clouds=True,
        ).flow
        for realization in realizations
    ]
    return ConditionalPicardResult(
        flows=flows, realizations=realizations, trace=[], iterations=1, initial_cloud=flows[0].clouds[0],
    )


def conditional_poc_replication(
    coeffs: CoefficientSet,
    noise: TwoLayerNoise,
    grid: TimeGrid,
    initial_sampler: InitialSampler,
    poc_cfg: PoCConfig,
    solver_cfg: SolverConfig,
    seed: int,
    path_idx: int,
    reference_flow: MeasureFlow,
    realization: CommonRealization,
) -> dict[int, tuple[float, float]]:
    """Coupling and conditional-iid terms along the n-grid for one common path.

    The weak replication with every run inside ``realization``: the
    interacting system, the coupled limit copies and the fresh copies
    all see that path's events.
    """
    return _coupling_replication(
        coeffs, noise.idio, grid, initial_sampler, poc_cfg, solver_cfg, seed, path_idx, reference_flow,
        realization,
    )


def run_conditional_poc(
    coeffs: CoefficientSet,
    noise: TwoLayerNoise,
    poc_cfg: PoCConfig,
    reference: ConditionalPicardResult,
    replication_results: list,
) -> RateReport:
    """Chaos slope with the limit taken conditionally on the common path.

    One common path per replication: ``replication_results`` holds the
    :func:`conditional_poc_replication` map of path j against the
    conditional fixed point ``reference.flows[j]`` on
    ``reference.realizations[j]``.  With the common layer zeroed this is
    term for term the plain weak experiment.
    """
    theo = phi_rate(poc_cfg.p, coeffs.beta, coeffs.dim)
    return rate_report("conditional_poc", poc_cfg, theo, reference, replication_results, {
        "common_small_rate": noise.common.small_rate,
        "common_big_rate": noise.common.big_rate,
        "common_events": [r.n_events for r in reference.realizations],
    })
