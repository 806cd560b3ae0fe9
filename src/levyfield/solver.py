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
is re-frozen from the post-jump value.  One function, :func:`_segment`,
solves every frozen small-jump segment, and it sums in one order:
``x + dt b``, minus ``dt`` times each compensator (idiosyncratic, then
common), plus each common small jump in time order, plus the particle's
own small-jump sum.  A step without a breakpoint is one segment of all
particles; a step with one crosses the breakpoints in rounds, round r
moving every particle with an r-th breakpoint up to it, and ends with
one segment of all particles to the step's end.

Every driver is one engine pass (:func:`_simulate_system`): a list of
blocks, each a tape plus its law source, run as one stacked state array.
A decoupled block reads a fixed :class:`~levyfield.measures.MeasureFlow`,
prepared once per flow time; an interacting block re-forms the cloud of
its own current states at every uniform grid time (snapshot semantics:
all its particles read the same cloud however the work is scheduled).
Each step stacks the blocks' prepared laws row by row and moves every
row with one segment or one interlacing, so each block evolves bit for
bit as it would alone.  A chaos replication is one pass over all its
systems; a single system, a reference and a fixed-point pass are
one-block passes.

A pass returns one :class:`SimResult` per block: the block's slice of
one ``(n_steps + 1, rows, d)`` state array and the pass's breakpoint
record.  Each step's states are read-only once computed, so an
interacting block's cloud wraps them without a copy, and the state array
is read-only once the pass ends.  Final states, flows, paths and time
series are all read from this record.

The fixed-point loop re-simulates one event tape (common random
numbers) against the previous iterate's flow until the discounted flow
distance stalls below tolerance.  Pass i of that loop is exact at grid
times ``t_0..t_i``, so its fixed point on a tape is the interacting
system on the same tape, bit for bit.  A rate run's reference is
therefore that one interacting run on the reserved reference streams;
the loop serves the ``picard`` experiment, which measures the
contraction.

The common layer is an argument of the engine and its drivers, not a
driver of its own: a :class:`~levyfield.common_noise.CommonRealization`
(None for none) feeds its events to every particle, and the fixed-point
loop iterates one flow per realization on the one shared tape.  An
event-free realization leaves the engine on the single-layer code path,
so the reductions to the single-layer model are structural, bit for bit.

Randomness discipline: each particle owns one stream per noise layer
(initial draw, small band, big band), addressed by particle id.  The
noise of a stream block is drawn once into an event tape before any
state moves: per particle the initial draw, then the small-band and the
big-band events, each band one Poisson process on ``(0, T]`` filed under
the uniform step holding each arrival, so the same at every step size.
A run only reads its tape, so runs that share streams share one tape:
the coupled pair, every particle count of a replication (a prefix of the
largest count's tape), and every pass of a common-random-numbers fixed
point.  Each layer of a tape is drawn for all its particles at once from
the raw Philox outputs of their streams
(:class:`~levyfield.streams.StreamBlock`): under stream scheme 3 every
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
runs its limit copies once, at its largest particle count, as one block
of the pass that also runs every count's interacting system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigurationError, DivergenceError, NonConvergenceError
from .initial import InitialLaw
from .measures import EmpiricalMeasure, MeasureFlow
from .noise import LevyModel, _draw_block_events
from .streams import Layer, StreamBlock, StreamContext
from .wasserstein import conditional_distance

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
    one-sided constant).
    """

    paths: int = 1000
    gamma: Optional[float] = None
    tol: float = 1e-3
    max_iter: int = 20
    divergence_threshold: float = 1e12
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

    def rows(self, start, stop) -> "_Breakpoints":
        """The breakpoints of particles ``start..stop-1``, renumbered from 0, still in application order."""
        keep = (self.row >= start) & (self.row < stop)
        return _Breakpoints(self.grid_times, self.step[keep], self.row[keep] - start, self.time[keep],
                            self.band[keep], self.mark[keep], self.increment[keep], self.state[keep])

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
    """One block of an engine pass: its states at every uniform grid time and its spliced big jumps.

    ``states`` is the block's ``(n_times, n, d)`` slice of the pass's
    state array and ``final`` its last time, both read-only views.  The
    big jumps sit in the pass's breakpoint record; the block's share of
    it (``_breakpoints``), the empirical ``flow`` (one cloud per grid
    time, each a view of ``states``) and the ``paths`` (the states with
    the breakpoints inserted) are built on first access and kept.
    """

    states: np.ndarray
    _record: _Breakpoints = field(repr=False)
    _rows: tuple[int, int] = field(repr=False)  # the block's rows in the record

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def _breakpoints(self) -> _Breakpoints:
        return self._record.rows(*self._rows)

    @cached_property
    def flow(self) -> MeasureFlow:
        return MeasureFlow(self._record.grid_times, [EmpiricalMeasure(x) for x in self.states])

    @cached_property
    def paths(self) -> list[PathSolution]:
        return self._breakpoints.paths(self.states)

    def head(self, n: int) -> "SimResult":
        """Rows ``0..n-1`` of a decoupled run: the same run on its tape's ``head(n)``."""
        if not 1 <= n <= self.states.shape[1]:
            raise ConfigurationError(f"cannot take {n} rows from a run of {self.states.shape[1]}")
        start = self._rows[0]
        return SimResult(self.states[:, :n], self._record, (start, start + n))


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
    def on_grid(row, time, mark, grid_times) -> "_Events":
        """Events drawn in (row, time) order, each filed under the uniform step ``(t_k, t_{k+1}]`` holding it."""
        step = np.searchsorted(grid_times, time, side="left") - 1
        # a stable sort by step keeps each step's events in (row, time) order
        order = np.argsort(step, kind="stable")
        return _Events(row[order], time[order], mark[order], np.searchsorted(step[order], np.arange(grid_times.size)))

    def at(self, k):
        a, b = self.offsets[k], self.offsets[k + 1]
        return self.row[a:b], self.time[a:b], self.mark[a:b]

    def head(self, n) -> "_Events":
        keep = self.row < n
        kept_before = np.concatenate([[0], np.cumsum(keep)])
        return _Events(self.row[keep], self.time[keep], self.mark[keep], kept_before[self.offsets])

    @staticmethod
    def stack(parts, starts, grid_times) -> Optional["_Events"]:
        """The events of consecutive particle ranges as one, rows shifted by each range's start (None: no band).

        Each step's events stay in (range, row, time) order, as :meth:`on_grid`'s stable sort keeps them.
        """
        live = [(events.row + start, events.time, events.mark) for events, start in zip(parts, starts)
                if events is not None]
        return _Events.on_grid(*map(np.concatenate, zip(*live)), grid_times) if live else None


@dataclass(frozen=True)
class _EventTape:
    """The noise of one stream block and particle range, drawn once.

    ``x0`` holds the initial states, ``small`` and ``big`` the events of
    the idiosyncratic bands (None for a band the run does not use).  The
    first ``n`` particles of a tape drawn for ids ``0..N-1`` are exactly
    the tape drawn for ids ``0..n-1``, see :meth:`head`.
    """

    x0: np.ndarray
    small: Optional[_Events]
    big: Optional[_Events]

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def head(self, n: int) -> "_EventTape":
        if n == self.n:
            return self
        if not 1 <= n < self.n:
            raise ConfigurationError(f"cannot take {n} particles from a tape of {self.n}")
        return _EventTape(
            self.x0[:n],
            self.small.head(n) if self.small is not None else None,
            self.big.head(n) if self.big is not None else None,
        )


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
    doubles: the initial law's ``uniforms`` doubles per particle, and each
    band as one Poisson process on ``(0, T]``, independent of the step.
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

    def band_events(band, layer):
        if band is None or band.rate == 0.0:
            return None
        return _Events.on_grid(*_draw_block_events(stream_ctx.keys(ids, layer), grid.horizon, band), grid.times)

    small = band_events(levy.small, Layer.SMALL) if coeffs.small_jump is not None else None
    big = band_events(levy.big, Layer.BIG) if coeffs.big_jump is not None else None
    return _EventTape(x0, small, big)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


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


def _segment(coeffs, ctx, laws, x, delta, common, own):
    """Solve one frozen small-jump segment: the new states of ``x``.

    Every coefficient sees ``x``, the states at the segment start, with
    ``ctx`` the prepared laws row-aligned with it, and the sum runs in
    one order: ``x + delta b``, minus ``delta`` times the
    idiosyncratic and then the common compensator (``laws`` holds their
    Lévy models, None for a band that is off), plus each common small
    jump in time order, plus each row's own small-event sum
    (:func:`_event_sums`).  ``delta`` is the scalar step or an ``(m, 1)``
    column of segment lengths.  The caller hands in only the events in
    the rows' windows: ``common`` as ``(rows, mark)`` pairs in time
    order, ``own`` as ``(rows, marks)`` with rows ascending.
    """
    small_law, common_law = laws
    out = x + delta * coeffs.drift(x, ctx)
    if small_law is not None:
        out -= delta * coeffs.small_compensator(x, ctx, small_law)
    if common_law is not None:
        out -= delta * coeffs.common_small_compensator(x, ctx, common_law)
    for rows, z in common:
        xr = x[rows]
        out[rows] += coeffs.common_small(xr, np.broadcast_to(z, xr.shape))
    own_rows, own_marks = own
    if own_rows.size:
        owners, sums = _event_sums(coeffs.small_jump(x[own_rows], own_marks, ctx[own_rows]), own_rows)
        out[owners] += sums
    return out


def _interlace(coeffs, ctx, laws, X, t0, t1, *, small, big, common_small, common_big):
    """Carry every particle across ``(t0, t1]`` through its breakpoints.

    ``X`` holds the states at ``t0`` and ``ctx`` the prepared laws
    row-aligned with it.  Breakpoints are each particle's
    own big events and every common big event of the step; simultaneous
    events apply idiosyncratic first.  Round r moves every particle with
    an r-th breakpoint up to it (one :func:`_segment` of those rows, each
    seeing the small events of its own window) and splices the jump in;
    one last segment of every particle reaches ``t1``.  Every segment
    thus sums in a calm step's order, and a particle without a
    breakpoint gets exactly a calm step's value.  Returns the states at
    ``t1`` and the breakpoint records ``(row, time, band, mark,
    increment, state)`` of each round.
    """
    n = X.shape[0]
    v_row, v_time, v_mark = big
    cv_time, cv_mark = common_big
    row = np.concatenate([v_row, np.repeat(np.arange(n), cv_time.size)])
    time = np.concatenate([v_time, np.tile(cv_time, n)])
    band = np.concatenate([np.zeros(v_time.size, dtype=int), np.ones(n * cv_time.size, dtype=int)])
    mark = np.concatenate([v_mark, np.tile(cv_mark, (n, 1))])
    order = np.lexsort((band, time, row))
    row, time, band, mark = row[order], time[order], band[order], mark[order]
    rank = np.arange(row.size) - np.searchsorted(row, row)
    u_row, u_time, u_mark = small
    cu_time, cu_mark = common_small
    s = np.full(n, t0)

    def window(q, s_b):
        """Length and small events of the segments of rows ``q`` (ascending) from ``s[q]`` to ``s_b``."""
        s_a = s[q]
        hi = np.full(n, -np.inf)
        hi[q] = s_b
        own = (u_time > s[u_row]) & (u_time <= hi[u_row])
        inside = (cu_time > s_a[:, None]) & (cu_time <= s_b[:, None])
        common = [(np.flatnonzero(inside[:, j]), cu_mark[j]) for j in np.flatnonzero(inside.any(axis=0))]
        return (s_b - s_a)[:, None], common, (np.searchsorted(q, u_row[own]), u_mark[own])

    x = X.copy()
    records = []
    for r in range(int(rank.max()) + 1):
        e = np.flatnonzero(rank == r)
        p, bt = row[e], time[e]
        go = bt > s[p]
        if go.any():
            q = p[go]
            x[q] = _segment(coeffs, ctx[q], laws, x[q], *window(q, bt[go]))
            s[q] = bt[go]
        idio = band[e] == 0
        incr = np.empty((e.size, x.shape[1]))
        if idio.any():
            incr[idio] = coeffs.big_jump(x[p[idio]], mark[e[idio]], ctx[p[idio]])
        if not idio.all():
            incr[~idio] = coeffs.common_big(x[p[~idio]], mark[e[~idio]], ctx[p[~idio]])
        x[p] = x[p] + incr
        records.append((p, bt, band[e], mark[e], incr, x[p]))
    return _segment(coeffs, ctx, laws, x, *window(np.arange(n), np.full(n, t1))), records


def _is_statistics(ctx) -> bool:
    return isinstance(ctx, np.ndarray) and ctx.ndim == 1 and ctx.dtype == np.float64


def _law_table(coeffs: CoefficientSet, flow: MeasureFlow, grid: TimeGrid):
    """The law ``flow`` gives each step of ``grid``, prepared once: ``table[k]`` is ``prepare(flow.at(t_k))``.

    Float statistics come as one ``(n_steps, len)`` array, small enough
    to ship to workers in place of the clouds; other contexts as a list.
    """
    table = [coeffs.prepare(flow.at(float(t))) for t in grid.times[:-1]]
    return np.array(table) if all(_is_statistics(ctx) for ctx in table) else table


def _stack_laws(ctxs, sizes):
    """One prepared law per block, repeated over the block's rows (see :mod:`levyfield.coefficients`)."""
    if all(_is_statistics(ctx) for ctx in ctxs):
        return np.repeat(np.array(ctxs), sizes, axis=0)
    return np.repeat(np.fromiter(ctxs, dtype=object, count=len(ctxs)), sizes)


def _simulate_system(
    coeffs: CoefficientSet,
    levy: LevyModel,
    grid: TimeGrid,
    blocks: Sequence[tuple],
    config: SolverConfig,
    *,
    common=None,
) -> list[SimResult]:
    """Run the ``(tape, law)`` blocks over ``grid`` as one stacked state array; nothing is drawn here.

    A block's law is None for an interacting block, whose rows read the
    cloud of their own states, else a :class:`MeasureFlow` or its
    :func:`_law_table`.  The common realization serves every block.
    Returns one :class:`SimResult` per block.  A divergence reports the
    first step any row crosses and the worst row's index within its
    block.
    """
    times = grid.times
    tapes = [tape for tape, _ in blocks]
    sizes = [tape.n for tape in tapes]
    starts = np.cumsum([0] + sizes)
    ranges = list(zip(starts[:-1], starts[1:]))
    tables = [_law_table(coeffs, law, grid) if isinstance(law, MeasureFlow) else law for _, law in blocks]
    if any(table is not None and len(table) != grid.n_steps for table in tables):
        raise ConfigurationError(f"a law table needs one law per step, {grid.n_steps} here")
    X = np.concatenate([tape.x0 for tape in tapes])
    n, d = X.shape
    small_events = _Events.stack([tape.small for tape in tapes], starts, times)
    big_events = _Events.stack([tape.big for tape in tapes], starts, times)
    no_rows, no_times, no_marks = np.empty(0, dtype=int), np.empty(0), np.empty((0, d))

    # common layer: events shared across particles, presampled by the caller;
    # offsets[k]:offsets[k + 1] are the events in uniform step (t_k, t_{k+1}]
    cu_off = cv_off = None
    if common is not None:
        if coeffs.common_small is not None and common.model.small_rate > 0.0:
            cu_off = np.searchsorted(common.u_times, times, side="right")
        if coeffs.common_big is not None and common.model.big_rate > 0.0:
            cv_off = np.searchsorted(common.v_times, times, side="right")
    # Levy models of the compensated bands, None for a band that is off
    laws = (levy if small_events is not None else None, common.model if cu_off is not None else None)

    states = np.empty((grid.n_steps + 1, n, d))
    states[0] = X
    records = []
    for k in range(grid.n_steps):
        # no segment writes the step-start states, so an interacting block's cloud wraps them as they are
        X.flags.writeable = False
        t0 = float(times[k])
        t1 = float(times[k + 1])
        dt = t1 - t0
        ctx = _stack_laws([
            table[k] if table is not None else coeffs.prepare(EmpiricalMeasure(X[a:b]))
            for (a, b), table in zip(ranges, tables)
        ], sizes)

        small = small_events.at(k) if small_events is not None else (no_rows, no_times, no_marks)
        big = big_events.at(k) if big_events is not None else (no_rows, no_times, no_marks)
        cu = cv = (no_times, no_marks)
        if cu_off is not None:
            a, b = cu_off[k], cu_off[k + 1]
            cu = (common.u_times[a:b], common.u_marks[a:b])
        if cv_off is not None:
            a, b = cv_off[k], cv_off[k + 1]
            cv = (common.v_times[a:b], common.v_marks[a:b])

        if big[0].size or cv[0].size:
            X, rounds = _interlace(coeffs, ctx, laws, X, t0, t1, small=small, big=big, common_small=cu, common_big=cv)
            records.extend((np.full(rec[0].size, k),) + rec for rec in rounds)
        else:
            X = _segment(coeffs, ctx, laws, X, dt, [(slice(None), z) for z in cu[1]], (small[0], small[2]))

        amax = float(np.max(np.abs(X))) if X.size else 0.0
        if not math.isfinite(amax) or amax > config.divergence_threshold:
            flat = np.abs(X)
            flat = np.where(np.isfinite(flat), flat, np.inf)
            worst = int(np.unravel_index(np.argmax(flat), flat.shape)[0])
            block = int(np.searchsorted(starts, worst, side="right")) - 1
            raise DivergenceError(t1, worst - int(starts[block]), amax)
        states[k + 1] = X

    states.flags.writeable = False
    record = _Breakpoints.from_rounds(times, records, d)
    return [SimResult(states[:, a:b], record, (a, b)) for a, b in ranges]


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


def _picard_flows(coeffs, initial, levy, grid, config, ctx, commons, gamma, flows=None):
    """Iterate the law map on one flow per entry of ``commons`` until it stalls.

    Every flow is re-simulated, decoupled and inside its entry's common
    realization (None: no common layer), from one event tape of
    ``config.paths`` particles drawn once from ``ctx``: common random
    numbers across passes and across entries.  The starting flows are
    the constant-in-time initial cloud unless ``flows`` gives them.
    Stops when :func:`~levyfield.wasserstein.conditional_distance`
    drops below ``config.tol`` and returns ``(flows, trace,
    initial_cloud)``; raises :class:`NonConvergenceError` with the trace
    when the budget runs out.
    """
    tape = _draw_tape(coeffs, levy, grid, ctx, initial, config.paths)
    initial_cloud = EmpiricalMeasure(tape.x0)
    if flows is None:
        flows = [MeasureFlow.constant(grid.times, initial_cloud) for _ in commons]
    trace: list[float] = []
    for _ in range(config.max_iter):
        new_flows = [
            _simulate_system(coeffs, levy, grid, [(tape, flow)], config, common=common)[0].flow
            for flow, common in zip(flows, commons)
        ]
        trace.append(conditional_distance(new_flows, flows, coeffs.beta, gamma, metric=config.flow_metric))
        flows = new_flows
        if trace[-1] < config.tol:
            return flows, trace, initial_cloud
    raise NonConvergenceError(trace, config.tol)


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
    One event tape serves every pass (common random numbers), making the
    map deterministic and its contraction factor directly observable.
    The starting flow is the constant-in-time initial cloud unless
    ``initial_flow`` overrides it (same grid required).  Raises
    :class:`NonConvergenceError` with the distance trace when the budget
    runs out.
    """
    gamma = resolve_gamma(config, coeffs)
    if initial_flow is not None and not np.array_equal(initial_flow.times, grid.times):
        raise ConfigurationError("initial flow grid must match the solver grid")
    flows, trace, initial_cloud = _picard_flows(
        coeffs, initial_sampler, levy, grid, config, stream_ctx, [None], gamma,
        None if initial_flow is None else [initial_flow],
    )
    return PicardResult(flow=flows[0], trace=trace, iterations=len(trace), initial_cloud=initial_cloud)


def simulate_particle_system(
    coeffs: CoefficientSet,
    n: int,
    initial_sampler,
    levy: LevyModel,
    grid: TimeGrid,
    stream_ctx: StreamContext,
    config: Optional[SolverConfig] = None,
    *,
    common=None,
    particle_ids: Optional[Sequence[int]] = None,
) -> SimResult:
    """Interacting system: every particle reads the cloud of current states.

    The cloud is re-formed from all ``n`` states at each uniform grid
    time and frozen for the following step (snapshot semantics).  The
    result holds the states and the spliced big jumps, from which its
    flow and paths are read.  ``common`` is a
    :class:`~levyfield.common_noise.CommonRealization` whose events every
    particle receives (None: no common layer); its jumps show up in the
    jump logs with band tag ``V0``, after any simultaneous idiosyncratic
    event.
    """
    config = config or SolverConfig()
    tape = _draw_tape(coeffs, levy, grid, stream_ctx, initial_sampler, n, particle_ids)
    [result] = _simulate_system(coeffs, levy, grid, [(tape, None)], config, common=common)
    return result


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
) -> CoupledResult:
    """Couple the n-particle system to n limit copies on identical noise.

    Both systems read one event tape of the per-particle streams (same
    initial draws, same events band by band), as two blocks of one pass;
    the limit copies read ``reference_flow`` while the particles read
    their own cloud, so the per-particle gaps isolate the measure-argument
    error.  Sup errors are taken over the realized grid (shared by
    construction) when ``record_paths`` is set, over uniform grid times
    otherwise.
    """
    tape = _draw_tape(coeffs, levy, grid, stream_ctx, initial_sampler, n)
    inter, limit = _simulate_system(
        coeffs, levy, grid, [(tape, None), (tape, reference_flow)], config or SolverConfig(),
    )
    return _coupled(inter, limit, at_breakpoints=record_paths)


def _coupled(inter: SimResult, limit: SimResult, *, at_breakpoints: bool = True) -> CoupledResult:
    """The pair's per-particle gaps, over the breakpoints too unless ``at_breakpoints`` is off."""
    if inter.final.shape != limit.final.shape:
        raise ConfigurationError(f"{inter.final.shape[0]} particles but {limit.final.shape[0]} limit copies")
    diffs = np.sqrt(((inter.states - limit.states) ** 2).sum(axis=2))  # (times, n)
    sups = diffs.max(axis=0)
    finals = diffs[-1]
    if at_breakpoints and inter._breakpoints.row.size:
        # both runs spliced the same jumps in the same order
        a, b = inter._breakpoints, limit._breakpoints
        np.maximum.at(sups, a.row, np.sqrt(((a.state - b.state) ** 2).sum(axis=1)))
    return CoupledResult(interacting=inter, limit=limit, sup_errors=sups, final_errors=finals)
