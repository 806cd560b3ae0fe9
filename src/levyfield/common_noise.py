"""A second jump layer shared by every particle.

Each particle keeps its own idiosyncratic streams, and the whole system
additionally reacts to one common two-band realization: small common
jumps enter compensated through ``common_small``, big ones uncompensated
through ``common_big``, interlaced with the idiosyncratic events (ties
broken idiosyncratic-first).  Conditioning on the common event history
turns the limit law into a random measure; its surrogate here is nested
Monte Carlo: k outer common paths, each carrying an m-particle cloud.

The common layer is an argument, not a second simulator: one
:class:`CommonRealization` (or None) goes to the same drivers the
single-layer model uses -- ``simulate_particle_system``, the Picard
loop behind ``picard_fixed_point`` and :func:`conditional_picard`, the
reference builder behind ``reference_fixed_point`` and
:func:`conditional_reference`, and the weak chaos replication.  The
reductions are therefore structural: an event-free common layer leaves
every one of them on the exact code path of the single-layer model, bit
for bit.  The conditional chaos experiment reuses the weak one's
replication and aggregation (``chaos.rate_report``) with one common
path per replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chaos import PoCConfig, RateReport, _coupling_replication, _reference_flows, phi_rate, rate_report
from .coefficients import CoefficientSet
from .errors import ConfigurationError
from .initial import InitialLaw
from .measures import EmpiricalMeasure, MeasureFlow
from .noise import LevyModel, _draw_block_events, no_noise
from .solver import SolverConfig, TimeGrid, _picard_flows, resolve_gamma
from .streams import EXP_MAIN, Layer, StreamContext

__all__ = [
    "TwoLayerNoise",
    "CommonRealization",
    "sample_common_realization",
    "ConditionalPicardResult",
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

    Each band is drawn like a tape's band: by the block drawer on
    ``(0, horizon]`` (count, then sorted uniform arrival times, then
    marks), from its common layer at particle id 0.  A
    zero-rate band draws nothing, so deleting a band and zeroing its rate
    produce the same realization.
    """
    if horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")

    def events(band, layer):
        if band is None or band.rate == 0.0:
            return np.empty(0), np.empty((0, model.dim))
        _, times, marks = _draw_block_events(stream_ctx.keys([0], layer), horizon, band)
        return times, marks

    u_times, u_marks = events(model.small, Layer.COMMON_SMALL)
    v_times, v_marks = events(model.big, Layer.COMMON_BIG)
    return CommonRealization(
        model=model, u_times=u_times, u_marks=u_marks, v_times=v_times, v_marks=v_marks
    )


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
    initial_sampler: InitialLaw,
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
    that many from replica offsets of ``stream_ctx``.  This is the
    fixed-point loop of :func:`~levyfield.solver.picard_fixed_point`
    with one flow per path: all paths read one event tape of inner
    streams (initial draws and idiosyncratic noise), common random
    numbers across passes and paths, so cross-path spread isolates the
    common layer's effect, and an event-free common layer collapses
    every path onto the single-layer fixed point bit-exactly.  Stops
    when the across-path distance drops below ``config.tol``; raises
    :class:`~levyfield.errors.NonConvergenceError` with the trace
    otherwise.
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
    if config.paths < 2:
        raise ConfigurationError(f"conditional clouds need >= 2 member particles, got {config.paths}")
    eta_val = float(eta) if eta is not None else resolve_gamma(config, coeffs)
    if initial_flows is not None:
        initial_flows = list(initial_flows)
        if len(initial_flows) != k:
            raise ConfigurationError(f"{k} common paths but {len(initial_flows)} starting flows")
        for fl in initial_flows:
            if not np.array_equal(fl.times, grid.times):
                raise ConfigurationError("initial flow grid must match the solver grid")
    flows, trace, initial_cloud = _picard_flows(
        coeffs, initial_sampler, noise.idio, grid, config, stream_ctx, realizations, eta_val, initial_flows
    )
    return ConditionalPicardResult(
        flows=flows, realizations=realizations, trace=trace, iterations=len(trace), initial_cloud=initial_cloud,
    )


def conditional_reference(
    coeffs: CoefficientSet,
    noise: TwoLayerNoise,
    grid: TimeGrid,
    initial_sampler: InitialLaw,
    poc_cfg: PoCConfig,
    solver_cfg: SolverConfig,
    seed: int,
) -> ConditionalPicardResult:
    """Common paths plus their conditional reference flows for a chaos run.

    Path j's events come from the main block at replica j, so the
    replication that measures path j later reuses exactly this
    realization.  Its flow is the interacting system inside that
    realization on the one tape of the reserved reference block that all
    paths share (:func:`~levyfield.chaos.reference_fixed_point`'s tape):
    the common-random-numbers fixed point of :func:`conditional_picard`,
    bit for bit, so a silent common layer gives the plain reference.
    One pass, empty trace.
    """
    realizations = [
        sample_common_realization(
            noise.common, StreamContext(seed=seed, experiment=EXP_MAIN, replica=j), grid.horizon
        )
        for j in range(poc_cfg.replications)
    ]
    flows = _reference_flows(coeffs, noise.idio, grid, initial_sampler, solver_cfg, poc_cfg, seed, realizations)
    return ConditionalPicardResult(
        flows=flows, realizations=realizations, trace=[], iterations=1, initial_cloud=flows[0].clouds[0],
    )


def conditional_poc_replication(
    coeffs: CoefficientSet,
    noise: TwoLayerNoise,
    grid: TimeGrid,
    initial_sampler: InitialLaw,
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
