"""Iterated Euler scheme with big-jump interlacing, and its drivers.

One step of the base scheme advances every path by

    ``x <- x + dt b(x, mu) + sum_{U-events} f(x, mu, z) - dt nu(f(x, mu, .); U)``

with ``x`` and ``mu`` frozen at the step start: the drift, the small-jump
coefficient, and the compensator all see the state as it was when the
step began, and the measure argument as it was at the last uniform grid
time.  Big-band events are interlaced: their arrival times are real
numbers, inserted as extra grid points for the path they drive; the
small-jump dynamics are solved up to each arrival, the jump
``x <- x + g(x-, mu, z)`` is spliced in, and the state (not the measure)
is re-frozen from the post-jump value.  A step applies this to all
particles at once: particles without a big event in the step take the
plain update, and the rest cross their breakpoints in rounds, round r
moving every such particle to its r-th breakpoint.

Measure sources are the only difference between the drivers: a decoupled
path reads a fixed :class:`~levyfield.measures.MeasureFlow`, the
interacting system re-forms the cloud of current states at every uniform
grid time (snapshot semantics: all particles read the same cloud no
matter how the work is scheduled), and the fixed-point driver alternates
the two, re-simulating the same noise against the previous iterate's
flow until the discounted flow distance stalls below tolerance.  With
common random numbers, pass i of that iteration is exact at grid times
``t_0..t_i``, so its fixed point on a tape is the interacting system on
the same tape, bit for bit.  A rate run's reference is therefore that
one interacting run on the reserved reference streams; the iteration
serves the ``picard`` experiment, which measures the contraction.

Randomness discipline: each particle owns one stream per noise layer
(initial draw, small band, big band), addressed by particle id.  The
noise of a stream block is drawn once into an event tape before any
state moves: per particle the initial draw, then the small-band events
step by step over the uniform grid, then the big-band events for the
whole horizon.  A run only reads its tape, so runs that share streams
share one tape: the coupled pair, every particle count of a replication
(a prefix of the largest count's tape), and every pass of a
common-random-numbers fixed point.  Each layer of a tape is drawn for
all its particles at once from the raw Philox outputs of their streams
(:class:`~levyfield.streams.StreamBlock`): under stream scheme 2 every
initial state and event is a fixed transform of the stream's ``random()``
doubles, so a stream yields exactly what a scalar reading of its own
generator makes of it.  Neither schedule nor particle count ever
reorders another particle's draws.  Consequences tested elsewhere:
deleting a zero-rate band changes nothing bit for bit, a one-particle
system equals a decoupled run against its own delta flow, permuting
particle ids permutes the output paths, and the first ``n`` rows of a
decoupled run on a tape are the decoupled run on the tape's first ``n``
particles (every coefficient, compensator and event sum is evaluated row
by row, and decoupled particles never see each other), so a replication
runs its limit copies once, at its largest particle count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigurationError, DivergenceError, NonConvergenceError
from .initial import InitialLaw
from .measures import EmpiricalMeasure, MeasureFlow
from .noise import LevyModel, _draw_block_events
from .streams import MAX_PARTICLE, Layer, StreamBlock, StreamContext
from .wasserstein import flow_distance

__all__ = [
    "TimeGrid",
    "SolverConfig",
    "PathSolution",
    "AppliedJump",
    "SimResult",
    "PicardResult",
    "CoupledResult",
    "picard_fixed_point",
    "simulate_particle_system",
    "simulate_coupled",
    "resolve_gamma",
]

# stream address reserved for the Monte Carlo compensator fallback batch
_COMPENSATOR_PARTICLE = MAX_PARTICLE


@dataclass(frozen=True)
class TimeGrid:
    """Uniform base grid on ``[0, horizon]`` with step ``step``.

    Big-jump arrival times are not part of this object; they are inserted
    per path at simulation time.  ``step`` must divide ``horizon``.
    """

    horizon: float
    step: float
    times: np.ndarray

    @staticmethod
    def regular(horizon: float, step: float) -> "TimeGrid":
        if not (horizon > 0 and step > 0):
            raise ConfigurationError(f"need horizon > 0 and step > 0, got {horizon}, {step}")
        count = round(horizon / step)
        if count < 1 or abs(count * step - horizon) > 1e-9 * max(1.0, horizon):
            raise ConfigurationError(f"step {step} does not divide horizon {horizon}")
        times = np.linspace(0.0, horizon, count + 1)
        times.flags.writeable = False
        return TimeGrid(horizon=float(horizon), step=float(step), times=times)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all drivers.

    ``paths`` is the cloud size of fixed-point iterates, ``gamma`` the
    flow-distance discount (``None`` resolves to ten times the declared
    one-sided constant), ``crn`` re-uses the same noise streams across
    fixed-point iterations so the contraction factor is visible instead
    of drowned in resampling noise.
    """

    paths: int = 1000
    gamma: Optional[float] = None
    tol: float = 1e-3
    max_iter: int = 20
    crn: bool = True
    divergence_threshold: float = 1e12
    compensator_samples: int = 2048
    flow_metric: str = "exact"

    def __post_init__(self):
        problems = []
        if self.paths < 1:
            problems.append(f"paths must be >= 1, got {self.paths}")
        if self.tol <= 0:
            problems.append(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            problems.append(f"max_iter must be >= 1, got {self.max_iter}")
        if self.divergence_threshold <= 0:
            problems.append("divergence_threshold must be > 0")
        if self.gamma is not None and self.gamma < 0:
            problems.append(f"gamma must be >= 0, got {self.gamma}")
        if self.flow_metric not in ("exact", "sliced"):
            problems.append(f"flow_metric must be 'exact' or 'sliced', got {self.flow_metric!r}")
        if problems:
            raise ConfigurationError(problems)


def resolve_gamma(config: SolverConfig, coeffs: CoefficientSet) -> float:
    """Discount for the fixed-point metric: explicit, else ``10 L1``."""
    if config.gamma is not None:
        return config.gamma
    if coeffs.declared_one_sided is None:
        raise ConfigurationError(
            "no gamma configured and the coefficient set declares no one-sided constant; "
            "set SolverConfig.gamma explicitly"
        )
    return 10.0 * max(coeffs.declared_one_sided, 0.0)


@dataclass(frozen=True)
class AppliedJump:
    """One spliced big jump: arrival, mark, band ('V' idio, 'V0' common), increment."""

    time: float
    mark: np.ndarray
    band: str
    increment: np.ndarray


@dataclass
class PathSolution:
    """One path on its realized grid (uniform points plus its V-event times).

    States are post-jump at jump times.  With an empty jump log the path
    is the plain compensated small-jump Euler polygon.
    """

    times: np.ndarray
    states: np.ndarray
    jumps: list[AppliedJump]


_BANDS = ("V", "V0")  # breakpoint band codes: 0 idiosyncratic, 1 common


@dataclass(frozen=True)
class _Breakpoints:
    """Every spliced big jump of one run, flat and in application order.

    Row i is the jump of particle ``row[i]`` at ``time[i]`` inside uniform
    step ``step[i]`` of ``grid_times``; ``state[i]`` is the post-jump
    state.  A particle's rows are chronological.
    """

    grid_times: np.ndarray
    step: np.ndarray
    row: np.ndarray
    time: np.ndarray
    band: np.ndarray
    mark: np.ndarray
    increment: np.ndarray
    state: np.ndarray

    @staticmethod
    def from_rounds(grid_times, rounds, d) -> "_Breakpoints":
        """Stack the ``(step, row, time, band, mark, increment, state)`` records of the rounds."""
        if not rounds:
            no_ints, no_rows = np.empty(0, dtype=int), np.empty((0, d))
            return _Breakpoints(grid_times, no_ints, no_ints, np.empty(0), no_ints, no_rows, no_rows, no_rows)
        return _Breakpoints(grid_times, *(np.concatenate(column) for column in zip(*rounds)))

    def head(self, n) -> "_Breakpoints":
        """The breakpoints of particles ``0..n-1``, still in application order."""
        keep = self.row < n
        return _Breakpoints(self.grid_times, self.step[keep], self.row[keep], self.time[keep], self.band[keep],
                            self.mark[keep], self.increment[keep], self.state[keep])

    def paths(self, grid_states) -> list[PathSolution]:
        """Per-particle paths: the uniform-grid states with the breakpoints inserted."""
        order = np.argsort(self.row, kind="stable")
        bounds = np.searchsorted(self.row[order], np.arange(grid_states.shape[1] + 1))
        out = []
        for j in range(grid_states.shape[1]):
            sel = order[bounds[j]:bounds[j + 1]]
            at = self.step[sel] + 1
            out.append(PathSolution(
                np.insert(self.grid_times, at, self.time[sel]),
                np.insert(grid_states[:, j, :], at, self.state[sel], axis=0),
                [AppliedJump(float(self.time[i]), self.mark[i].copy(), _BANDS[self.band[i]],
                             self.increment[i].copy()) for i in sel],
            ))
        return out


@dataclass
class SimResult:
    """Everything one ensemble run can hand back (fields None unless requested).

    ``paths`` is built from the uniform-grid ``states`` and the breakpoint
    record on first access and kept from then on.
    """

    final: np.ndarray
    flow: Optional[MeasureFlow] = None
    states: Optional[np.ndarray] = None  # (n_times, n, d) at uniform grid times
    _breakpoints: Optional[_Breakpoints] = field(default=None, repr=False)
    _paths: Optional[list[PathSolution]] = field(default=None, repr=False)

    @property
    def paths(self) -> Optional[list[PathSolution]]:
        if self._paths is None and self._breakpoints is not None:
            self._paths = self._breakpoints.paths(self.states)
        return self._paths

    def head(self, n: int) -> "SimResult":
        """Rows ``0..n-1`` of a decoupled run, clouds dropped: the same run on its tape's ``head(n)``."""
        if not 1 <= n <= self.final.shape[0]:
            raise ConfigurationError(f"cannot take {n} rows from a run of {self.final.shape[0]}")
        return SimResult(
            final=self.final[:n],
            states=self.states[:, :n] if self.states is not None else None,
            _breakpoints=self._breakpoints.head(n) if self._breakpoints is not None else None,
        )


# ---------------------------------------------------------------------------
# the event tape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Events:
    """Events of one band for a particle range, sorted by (step, row, time).

    The events of uniform step k are rows ``offsets[k]:offsets[k + 1]``.
    """

    row: np.ndarray
    time: np.ndarray
    mark: np.ndarray
    offsets: np.ndarray

    @staticmethod
    def from_draws(row, step, time, mark, n_steps) -> "_Events":
        """Events from flat draws in (row, time) order within each step."""
        # a stable sort by step keeps each step's events in (row, time) order
        order = np.argsort(step, kind="stable")
        return _Events(row[order], time[order], mark[order], np.searchsorted(step[order], np.arange(n_steps + 1)))

    def at(self, k):
        a, b = self.offsets[k], self.offsets[k + 1]
        return self.row[a:b], self.time[a:b], self.mark[a:b]

    def head(self, n) -> "_Events":
        keep = self.row < n
        kept_before = np.concatenate([[0], np.cumsum(keep)])
        return _Events(self.row[keep], self.time[keep], self.mark[keep], kept_before[self.offsets])


@dataclass(frozen=True)
class _EventTape:
    """The noise of one stream block and particle range, drawn once.

    ``x0`` holds the initial states, ``small`` and ``big`` the events of
    the idiosyncratic bands (None for a band the run does not use).  The
    first ``n`` particles of a tape drawn for ids ``0..N-1`` are exactly
    the tape drawn for ids ``0..n-1``, see :meth:`head`.  Compensator mark
    batches are drawn on first use and shared by every slice.
    """

    stream_ctx: StreamContext
    x0: np.ndarray
    small: Optional[_Events]
    big: Optional[_Events]
    batches: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def head(self, n: int) -> "_EventTape":
        if n == self.n:
            return self
        if not 1 <= n < self.n:
            raise ConfigurationError(f"cannot take {n} particles from a tape of {self.n}")
        return _EventTape(
            self.stream_ctx, self.x0[:n],
            self.small.head(n) if self.small is not None else None,
            self.big.head(n) if self.big is not None else None,
            self.batches,
        )

    def batch(self, layer: Layer, band, samples: int) -> np.ndarray:
        """Pinned compensator mark batch of ``band`` from ``layer``'s reserved stream."""
        key = (int(layer), band, samples)
        if key not in self.batches:
            gen = self.stream_ctx.generator(_COMPENSATOR_PARTICLE, layer)
            self.batches[key] = band.sampler.draw(gen, samples)
        return self.batches[key]


def _draw_tape(
    coeffs: CoefficientSet,
    levy: LevyModel,
    grid: TimeGrid,
    stream_ctx: StreamContext,
    initial,
    n: int,
    particle_ids: Optional[Sequence[int]] = None,
) -> _EventTape:
    """Draw the tape of ``n`` particles (ids ``0..n-1`` unless given).

    ``initial`` is a sampler, drawn from each particle's INIT stream, or
    an ``(n, d)`` array of given states, which draws nothing.  A band is
    drawn only when it is live and the coefficients use it.

    Every layer is drawn for all particles at once from their streams'
    doubles: the initial law's ``uniforms`` doubles per particle, the
    small band over the uniform grid and the big band over the one-step
    grid ``[0, T]``.
    """
    d = coeffs.dim
    if levy.dim != d:
        raise ConfigurationError(f"noise dim {levy.dim} != coefficient dim {d}")
    ids = list(particle_ids) if particle_ids is not None else list(range(n))
    if len(ids) != n:
        raise ConfigurationError(f"{n} particles but {len(ids)} particle ids")
    if isinstance(initial, InitialLaw):
        block = StreamBlock(stream_ctx.keys(ids, Layer.INIT), initial.uniforms)
        x0 = initial.from_uniforms(block.doubles(np.arange(n), initial.uniforms).T)
    else:
        x0 = np.array(initial, dtype=float).reshape(n, d)

    times = grid.times
    small = big = None
    if levy.small is not None and levy.small.rate > 0.0 and coeffs.small_jump is not None:
        row, step, time, mark = _draw_block_events(stream_ctx.keys(ids, Layer.SMALL), times, levy.small)
        small = _Events.from_draws(row, step, time, mark, grid.n_steps)
    if levy.big is not None and levy.big.rate > 0.0 and coeffs.big_jump is not None:
        row, _, time, mark = _draw_block_events(
            stream_ctx.keys(ids, Layer.BIG), np.array([0.0, grid.horizon]), levy.big
        )
        # uniform step (t_k, t_{k+1}] holding each arrival
        step = np.searchsorted(times, time, side="left") - 1
        big = _Events.from_draws(row, step, time, mark, grid.n_steps)
    return _EventTape(stream_ctx, x0, small, big)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _mc_compensator(coeffs_fn, rate, batch, measure_free):
    """Fallback ``integral f(x, mu, z) nu(dz)`` from a pinned mark batch."""

    def comp(X, ctx):
        out = np.empty_like(X)
        k = batch.shape[0]
        for j in range(X.shape[0]):
            tiled = np.broadcast_to(X[j], (k, X.shape[1]))
            vals = coeffs_fn(tiled, batch) if measure_free else coeffs_fn(tiled, batch, ctx)
            out[j] = rate * vals.mean(axis=0)
        return out

    return comp


def _event_sums(vals, owner):
    """Per-owner sums of event values, owners ascending and contiguous.

    Each owner's ``(m, d)`` block is summed on its own, grouped by ``m``,
    so the result is bit-equal to summing the blocks one at a time; when
    no owner repeats, the values are their own sums.
    """
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    start = np.flatnonzero(first)
    if start.size == owner.size:
        return owner, vals
    count = np.diff(np.append(start, owner.size))
    sums = np.empty((start.size, vals.shape[1]))
    for m in np.flatnonzero(np.bincount(count)):
        sel = count == m
        sums[sel] = vals[start[sel, None] + np.arange(m)].sum(axis=1)
    return owner[start], sums


def _interlace(coeffs, ctx, x, rows, t0, t1, *, comp, comp0, small, big, common_small, common_big):
    """Carry particles ``rows`` (ascending) across ``(t0, t1]`` through their breakpoints.

    ``x`` holds their states at ``t0`` and is advanced in place.
    Breakpoints are the particles' own big events and every common big
    event of the step; simultaneous events apply idiosyncratic first.
    Round r moves every particle with an r-th breakpoint up to it (a
    segment of small-jump dynamics frozen at the segment start) and
    splices the jump in.  Returns the breakpoint records
    ``(row, time, band, mark, increment, state)`` of each round.
    """
    m = rows.size
    v_row, v_time, v_mark = big
    cv_time, cv_mark = common_big
    pos = np.concatenate([np.searchsorted(rows, v_row), np.repeat(np.arange(m), cv_time.size)])
    time = np.concatenate([v_time, np.tile(cv_time, m)])
    band = np.concatenate([np.zeros(v_time.size, dtype=int), np.ones(m * cv_time.size, dtype=int)])
    mark = np.concatenate([v_mark, np.tile(cv_mark, (m, 1))])
    order = np.lexsort((band, time, pos))
    pos, time, band, mark = pos[order], time[order], band[order], mark[order]
    rank = np.arange(pos.size) - np.searchsorted(pos, pos)

    u_row, u_time, u_mark = small
    hit = np.isin(u_row, rows)
    u_pos, u_time, u_mark = np.searchsorted(rows, u_row[hit]), u_time[hit], u_mark[hit]
    cu_time, cu_mark = common_small

    def advance(q, s_a, s_b):
        xq = x[q]
        delta = (s_b - s_a)[:, None]
        incr = delta * coeffs.drift(xq, ctx)
        if comp is not None:
            incr = incr - delta * comp(xq, ctx)
        if comp0 is not None:
            incr = incr - delta * comp0(xq, ctx)
        if u_pos.size:
            lo = np.full(m, np.nan)
            hi = np.full(m, np.nan)
            lo[q], hi[q] = s_a, s_b
            own = (u_time > lo[u_pos]) & (u_time <= hi[u_pos])
            if own.any():
                owners, sums = _event_sums(coeffs.small_jump(x[u_pos[own]], u_mark[own], ctx), u_pos[own])
                at = np.searchsorted(q, owners)
                incr[at] = incr[at] + sums
        if cu_time.size:
            qi, ei = np.nonzero((cu_time > s_a[:, None]) & (cu_time <= s_b[:, None]))
            if qi.size:
                owners, sums = _event_sums(coeffs.common_small(xq[qi], cu_mark[ei]), qi)
                incr[owners] = incr[owners] + sums
        x[q] = xq + incr

    s = np.full(m, t0)
    records = []
    for r in range(int(rank.max()) + 1 if rank.size else 0):
        e = np.flatnonzero(rank == r)
        p, bt = pos[e], time[e]
        go = bt > s[p]
        if go.any():
            advance(p[go], s[p[go]], bt[go])
            s[p[go]] = bt[go]
        idio = band[e] == 0
        incr = np.empty((e.size, x.shape[1]))
        if idio.any():
            incr[idio] = coeffs.big_jump(x[p[idio]], mark[e[idio]], ctx)
        if not idio.all():
            incr[~idio] = coeffs.common_big(x[p[~idio]], mark[e[~idio]], ctx)
        x[p] = x[p] + incr
        records.append((rows[p], bt, band[e], mark[e], incr, x[p]))
    go = np.flatnonzero(t1 > s)
    if go.size:
        advance(go, s[go], np.full(go.size, t1))
    return records


def _simulate_system(
    coeffs: CoefficientSet,
    levy: LevyModel,
    grid: TimeGrid,
    tape: _EventTape,
    config: SolverConfig,
    *,
    flow: Optional[MeasureFlow] = None,
    interacting: bool = False,
    common=None,
    collect_clouds: bool = False,
    collect_states: bool = False,
    record_paths: bool = False,
    observer: Optional[Callable] = None,
) -> SimResult:
    """Run the particles of ``tape`` over ``grid``; nothing is drawn here but compensator batches."""
    if not interacting and flow is None:
        raise ConfigurationError("decoupled runs need a measure flow")
    times = grid.times
    X = tape.x0.copy()
    n, d = X.shape
    no_rows, no_times, no_marks = np.empty(0, dtype=int), np.empty(0), np.empty((0, d))

    comp = None
    if tape.small is not None:
        if coeffs.small_compensator is not None:
            comp = lambda X_, ctx_: coeffs.small_compensator(X_, ctx_, levy)
        else:
            batch = tape.batch(Layer.AUX, levy.small, config.compensator_samples)
            # small_jump always takes the measure context positionally
            comp = _mc_compensator(coeffs.small_jump, levy.small.rate, batch, measure_free=False)

    # common layer: events shared across particles, presampled by the caller;
    # offsets[k]:offsets[k + 1] are the events in uniform step (t_k, t_{k+1}]
    cu_off = cv_off = None
    comp0 = None
    if common is not None:
        if coeffs.common_small is not None and common.model.small_rate > 0.0:
            cu_off = np.searchsorted(common.u_times, times, side="right")
            if coeffs.common_small_compensator is not None:
                comp0 = lambda X_, ctx_: coeffs.common_small_compensator(X_, ctx_, common.model)
            else:
                batch0 = tape.batch(Layer.COMMON_SMALL, common.model.small, config.compensator_samples)
                comp0 = _mc_compensator(coeffs.common_small, common.model.small.rate, batch0, measure_free=True)
        if coeffs.common_big is not None and common.model.big_rate > 0.0:
            cv_off = np.searchsorted(common.v_times, times, side="right")

    states = None
    if collect_states or record_paths:
        states = np.empty((grid.n_steps + 1, n, d))
        states[0] = X
    clouds = [EmpiricalMeasure(X)] if collect_clouds else None
    records = [] if record_paths else None
    if observer is not None:
        observer(0, float(times[0]), X)

    for k in range(grid.n_steps):
        t0 = float(times[k])
        t1 = float(times[k + 1])
        dt = t1 - t0
        mu = EmpiricalMeasure(X) if interacting else flow.at(t0)
        ctx = coeffs.prepare(mu)

        base = X + dt * coeffs.drift(X, ctx)
        if comp is not None:
            base -= dt * comp(X, ctx)
        if comp0 is not None:
            base -= dt * comp0(X, ctx)

        small = tape.small.at(k) if tape.small is not None else (no_rows, no_times, no_marks)
        big = tape.big.at(k) if tape.big is not None else (no_rows, no_times, no_marks)
        cu = cv = (no_times, no_marks)
        if cu_off is not None:
            a, b = cu_off[k], cu_off[k + 1]
            cu = (common.u_times[a:b], common.u_marks[a:b])
        if cv_off is not None:
            a, b = cv_off[k], cv_off[k + 1]
            cv = (common.v_times[a:b], common.v_marks[a:b])

        # particles with a big event in the step cross it in rounds; the rest
        # take the single frozen segment
        if cv[0].size:
            jumping = np.arange(n)
        else:
            jumping = np.unique(big[0]) if big[0].size else no_rows
            for zc in cu[1]:
                base += coeffs.common_small(X, np.broadcast_to(zc, (n, d)))
        u_row, _, u_mark = small
        if u_row.size:
            calm = ~np.isin(u_row, jumping) if jumping.size else slice(None)
            if u_row[calm].size:
                owners, sums = _event_sums(
                    coeffs.small_jump(X[u_row[calm]], u_mark[calm], ctx), u_row[calm]
                )
                base[owners] += sums
        if jumping.size:
            x = X[jumping]
            rounds = _interlace(coeffs, ctx, x, jumping, t0, t1, comp=comp, comp0=comp0,
                                small=small, big=big, common_small=cu, common_big=cv)
            base[jumping] = x
            if records is not None:
                records.extend((np.full(rec[0].size, k),) + rec for rec in rounds)
        X = base

        amax = float(np.max(np.abs(X))) if X.size else 0.0
        if not math.isfinite(amax) or amax > config.divergence_threshold:
            flat = np.abs(X)
            flat = np.where(np.isfinite(flat), flat, np.inf)
            worst = int(np.unravel_index(np.argmax(flat), flat.shape)[0])
            raise DivergenceError(t1, worst, amax)

        if observer is not None:
            observer(k + 1, t1, X)
        if collect_clouds:
            clouds.append(EmpiricalMeasure(X))
        if states is not None:
            states[k + 1] = X

    return SimResult(
        final=X,
        flow=MeasureFlow(times, clouds) if collect_clouds else None,
        states=states,
        _breakpoints=_Breakpoints.from_rounds(times, records, d) if record_paths else None,
    )


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@dataclass
class PicardResult:
    """Fixed-point outcome: final flow, distance trace, initial cloud."""

    flow: MeasureFlow
    trace: list[float]
    iterations: int
    initial_cloud: EmpiricalMeasure


def picard_fixed_point(
    coeffs: CoefficientSet,
    initial_sampler,
    levy: LevyModel,
    grid: TimeGrid,
    config: SolverConfig,
    stream_ctx: StreamContext,
    *,
    initial_flow: Optional[MeasureFlow] = None,
) -> PicardResult:
    """Iterate the law-to-path map on empirical flows until it stalls.

    Each iteration re-simulates ``config.paths`` decoupled paths against
    the previous flow and takes their empirical clouds as the next flow.
    Initial draws are made once and shared by every iteration; with
    ``config.crn`` the noise streams are also identical across
    iterations (one event tape serves every pass), making the map
    deterministic and its contraction factor directly observable.  The
    starting flow is the constant-in-time initial cloud unless
    ``initial_flow`` overrides it (same grid required).  Raises
    :class:`NonConvergenceError` with the distance trace when the budget
    runs out.
    """
    m = config.paths
    gamma = resolve_gamma(config, coeffs)
    if initial_flow is not None and not np.array_equal(initial_flow.times, grid.times):
        raise ConfigurationError("initial flow grid must match the solver grid")
    tape = _draw_tape(coeffs, levy, grid, stream_ctx, initial_sampler, m)
    initial_cloud = EmpiricalMeasure(tape.x0)
    flow = initial_flow if initial_flow is not None else MeasureFlow.constant(grid.times, initial_cloud)

    trace: list[float] = []
    for it in range(config.max_iter):
        if it and not config.crn:
            ctx_it = stream_ctx.with_(replica=stream_ctx.replica + it)
            tape = _draw_tape(coeffs, levy, grid, ctx_it, initial_cloud.points, m)
        res = _simulate_system(coeffs, levy, grid, tape, config, flow=flow, collect_clouds=True)
        new_flow = res.flow
        dist = flow_distance(new_flow, flow, coeffs.beta, gamma, metric=config.flow_metric)
        trace.append(dist)
        flow = new_flow
        if dist < config.tol:
            return PicardResult(flow=flow, trace=trace, iterations=it + 1, initial_cloud=initial_cloud)
    raise NonConvergenceError(trace, config.tol)


def simulate_particle_system(
    coeffs: CoefficientSet,
    n: int,
    initial_sampler,
    levy: LevyModel,
    grid: TimeGrid,
    stream_ctx: StreamContext,
    config: Optional[SolverConfig] = None,
    *,
    particle_ids: Optional[Sequence[int]] = None,
    record_paths: bool = False,
    collect_clouds: bool = True,
    observer: Optional[Callable] = None,
) -> SimResult:
    """Interacting system: every particle reads the cloud of current states.

    The cloud is re-formed from all ``n`` states at each uniform grid
    time and frozen for the following step (snapshot semantics).  Paths
    are returned on request; the empirical flow is collected by default.
    """
    config = config or SolverConfig()
    tape = _draw_tape(coeffs, levy, grid, stream_ctx, initial_sampler, n, particle_ids)
    return _simulate_system(
        coeffs, levy, grid, tape, config,
        interacting=True, collect_clouds=collect_clouds, record_paths=record_paths, observer=observer,
    )


@dataclass
class CoupledResult:
    """Synchronously coupled pair: interacting system vs limit copies."""

    interacting: SimResult
    limit: SimResult
    sup_errors: np.ndarray  # (n,) sup over the evaluation grid of |X_i - Y_i|
    final_errors: np.ndarray  # (n,) |X_i(T) - Y_i(T)|


def simulate_coupled(
    coeffs: CoefficientSet,
    n: int,
    initial_sampler,
    levy: LevyModel,
    grid: TimeGrid,
    stream_ctx: StreamContext,
    reference_flow: MeasureFlow,
    config: Optional[SolverConfig] = None,
    *,
    record_paths: bool = False,
    tape: Optional[_EventTape] = None,
    limit: Optional[SimResult] = None,
) -> CoupledResult:
    """Couple the n-particle system to n limit copies on identical noise.

    Both systems read one event tape of the per-particle streams (same
    initial draws, same events band by band); the limit copies read
    ``reference_flow`` while the particles read their own cloud, so the
    per-particle gaps isolate the measure-argument error.  Sup errors are
    taken over the realized grid (shared by construction) when
    ``record_paths`` is set, over uniform grid times otherwise.  ``tape``
    passes in the first ``n`` particles of a tape already drawn from
    ``stream_ctx``, and ``limit`` the first ``n`` rows of the limit
    copies already run on it (:meth:`SimResult.head`).
    """
    config = config or SolverConfig()
    if tape is None:
        tape = _draw_tape(coeffs, levy, grid, stream_ctx, initial_sampler, n)
    elif tape.n != n:
        raise ConfigurationError(f"{n} particles but a tape of {tape.n}")
    inter = _simulate_system(
        coeffs, levy, grid, tape, config, interacting=True, collect_states=True, record_paths=record_paths
    )
    if limit is None:
        limit = _simulate_system(
            coeffs, levy, grid, tape, config, flow=reference_flow, collect_states=True, record_paths=record_paths
        )
    elif limit.final.shape[0] != n:
        raise ConfigurationError(f"{n} particles but {limit.final.shape[0]} limit copies")
    diffs = np.sqrt(((inter.states - limit.states) ** 2).sum(axis=2))  # (times, n)
    sups = diffs.max(axis=0)
    finals = diffs[-1]
    if record_paths and inter._breakpoints.row.size:
        # both runs spliced the same jumps in the same order
        a, b = inter._breakpoints, limit._breakpoints
        np.maximum.at(sups, a.row, np.sqrt(((a.state - b.state) ** 2).sum(axis=1)))
    return CoupledResult(interacting=inter, limit=limit, sup_errors=sups, final_errors=finals)
