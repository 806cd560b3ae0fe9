"""Two-band jump noise: finite-activity samplers and nu-integrals.

The driving noise is a Poisson random measure N on ``(0, T] x (R^d \\ {0})``
whose intensity ``dt x nu`` is split at a radius ``r`` into two disjoint
bands:

* the small band ``U = {0 < |z| <= r}``, integrated in compensated form
  (``N~ = N - dt nu``) so its increments are martingales;
* the big band ``V = {|z| > r}``, kept uncompensated and applied as
  explicit state-dependent jumps.

Both bands are finite activity here: events on ``[0, T]`` arrive as a
Poisson process with rate ``nu(band)`` and carry i.i.d. marks from the
normalized restriction ``nu|_band / nu(band)``.  Under stream scheme 3
(see :mod:`levyfield.streams`) each band of a stream is one Poisson
process on ``(0, T]``, drawn without reference to any time grid, and its
count, arrival times and marks are fixed transforms of the stream's
``random()`` doubles, so the events of a whole block of streams are drawn
at once (:func:`_draw_block_events`).

Well-posedness of the dynamics requires, for the integrability exponent
``beta`` in ``[1, 2]``, that ``nu(|z|^2 ; U)`` and ``nu(1 v |z|^beta ; V)``
are finite; :func:`nu_expectation` evaluates such integrals, exactly when
the sampler admits a closed form and by plain Monte Carlo otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, IntegrabilityError
from .streams import EXP_AUX, Layer, NoiseStream, StreamBlock, standard_normals

__all__ = [
    "MarkSampler",
    "AnnulusUniform",
    "RadialExponential",
    "FixedMark",
    "MARK_SAMPLERS",
    "LevyBand",
    "LevyModel",
    "NuEstimate",
    "nu_expectation",
]


# ---------------------------------------------------------------------------
# mark samplers
# ---------------------------------------------------------------------------


class MarkSampler:
    """Law of one jump mark, i.e. the normalized restriction of nu to a band.

    Subclasses set ``dim``, the radial support ``(r_lo, r_hi)``, the mean
    vector ``mean`` under the normalized law, and the number ``uniforms``
    of doubles one mark takes, and implement ``from_uniforms``.  Marks are
    a fixed transform of those doubles, so they are drawn for many
    streams at once.  ``radial_cdf`` and ``abs_moment`` are optional
    closed forms used by statistical tests and exact integrals; leave them
    as None when absent.
    """

    dim: int
    r_lo: float
    r_hi: float
    mean: np.ndarray
    uniforms: int

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """``size`` marks from ``uniforms`` blocks of ``size`` doubles of ``gen``, one block after another."""
        return self.from_uniforms(gen.random((self.uniforms, size)))

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """The ``(size, dim)`` marks made from the ``(uniforms, size)`` doubles ``u``."""
        raise NotImplementedError

    def radial_cdf(self, r):
        """CDF of |Z| if known in closed form, else None."""
        return None

    def abs_moment(self, q: float) -> Optional[float]:
        """E|Z|^q under the normalized law if known in closed form."""
        return None


def _direction_uniforms(dim: int) -> int:
    return 1 if dim == 1 else 2 * dim


def _directions(u, dim):
    """Isotropic unit vectors from ``(_direction_uniforms(dim), size)`` doubles.

    In 1D a fair sign; otherwise ``dim`` Box-Muller normals, normalized.
    """
    if dim == 1:
        return np.where(u[0] < 0.5, -1.0, 1.0)[:, None]
    v = standard_normals(u[0::2], u[1::2]).T
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    # a zero normal vector has probability zero; nudge defensively
    norms[norms == 0.0] = 1.0
    return v / norms


class AnnulusUniform(MarkSampler):
    """Marks uniform on the annulus ``{r_lo < |z| <= r_hi}``.

    Radius has density proportional to ``r^(dim-1)`` on ``(r_lo, r_hi]``
    (the uniform volume measure), direction is isotropic.  In one
    dimension this is the uniform law on the two intervals
    ``[-r_hi, -r_lo) u (r_lo, r_hi]``.
    """

    def __init__(self, dim: int, r_lo: float, r_hi: float):
        if not (0.0 <= r_lo < r_hi):
            raise ConfigurationError(f"annulus needs 0 <= r_lo < r_hi, got [{r_lo}, {r_hi}]")
        self.dim = int(dim)
        self.r_lo = float(r_lo)
        self.r_hi = float(r_hi)
        self.mean = np.zeros(self.dim)
        # one double for the radius, then the direction's
        self.uniforms = 1 + _direction_uniforms(self.dim)

    def from_uniforms(self, u):
        d = self.dim
        radius = (self.r_lo**d + u[0] * (self.r_hi**d - self.r_lo**d)) ** (1.0 / d)
        # the band never contains the origin
        np.maximum(radius, np.nextafter(0.0, 1.0), out=radius)
        return _directions(u[1:], d) * radius[:, None]

    def radial_cdf(self, r):
        d = self.dim
        r = np.clip(np.asarray(r, dtype=float), self.r_lo, self.r_hi)
        return (r**d - self.r_lo**d) / (self.r_hi**d - self.r_lo**d)

    def abs_moment(self, q):
        d = self.dim
        num = d * (self.r_hi ** (d + q) - self.r_lo ** (d + q))
        return num / ((d + q) * (self.r_hi**d - self.r_lo**d))


class RadialExponential(MarkSampler):
    """Isotropic marks with exponentially decaying radius.

    ``|Z| = r_lo + E`` with ``E ~ Exp(decay)``, ``E = -log1p(-u) / decay``;
    direction isotropic.  Unbounded support, so only valid as a big-band
    law when every ``|z|^beta`` moment required by the dynamics is
    finite, which holds for all ``beta`` here since the radius has
    exponential tails.
    """

    def __init__(self, dim: int, r_lo: float, decay: float):
        if r_lo < 0 or decay <= 0:
            raise ConfigurationError(f"radial_exponential needs r_lo >= 0, decay > 0, got ({r_lo}, {decay})")
        self.dim = int(dim)
        self.r_lo = float(r_lo)
        self.r_hi = math.inf
        self.decay = float(decay)
        self.mean = np.zeros(self.dim)
        self.uniforms = 1 + _direction_uniforms(self.dim)

    def from_uniforms(self, u):
        radius = self.r_lo - np.log1p(-u[0]) / self.decay
        return _directions(u[1:], self.dim) * radius[:, None]

    def radial_cdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.r_lo, 0.0, 1.0 - np.exp(-self.decay * (r - self.r_lo)))

    def abs_moment(self, q):
        if q == 1.0:
            return self.r_lo + 1.0 / self.decay
        if q == 2.0:
            return self.r_lo**2 + 2.0 * self.r_lo / self.decay + 2.0 / self.decay**2
        return None


class FixedMark(MarkSampler):
    """Degenerate mark law: every jump carries the same mark.

    Useful for forcing asymmetric compensators and for hand-checkable
    jump arithmetic in tests.
    """

    def __init__(self, mark):
        z = np.atleast_1d(np.asarray(mark, dtype=float))
        if z.ndim != 1 or not np.all(np.isfinite(z)):
            raise ConfigurationError(f"fixed mark must be a finite vector, got {mark!r}")
        norm = float(np.sqrt((z * z).sum()))
        if norm == 0.0:
            raise ConfigurationError("fixed mark may not be the origin")
        self.dim = z.size
        self.r_lo = norm
        self.r_hi = norm
        self.mean = z
        self._mark = z
        self.uniforms = 0

    def from_uniforms(self, u):
        return np.tile(self._mark, (u.shape[1], 1))

    def abs_moment(self, q):
        return self.r_lo**q


MARK_SAMPLERS: dict[str, Callable[..., MarkSampler]] = {
    "annulus_uniform": AnnulusUniform,
    "radial_exponential": RadialExponential,
    "fixed_mark": lambda dim, mark: FixedMark(mark),
}


# ---------------------------------------------------------------------------
# bands and the two-band model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyBand:
    """One finite-activity band of the jump measure.

    ``rate`` is the total mass ``nu(band)``; marks follow ``sampler``.
    """

    rate: float
    sampler: MarkSampler

    def __post_init__(self):
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ConfigurationError(f"band rate must be finite and >= 0, got {self.rate}")

    def mean_measure(self) -> np.ndarray:
        """Un-normalized first moment ``integral z nu(dz)`` over the band."""
        return self.rate * self.sampler.mean


@dataclass(frozen=True)
class LevyModel:
    """Jump noise split at ``split_radius`` into small and big bands.

    Either band may be absent (None), meaning zero intensity there.  Band
    supports must respect the split: small marks in ``(0, split_radius]``,
    big marks in ``(split_radius, inf)``, and neither contains the origin.
    """

    dim: int
    split_radius: float
    small: Optional[LevyBand] = None
    big: Optional[LevyBand] = None

    def __post_init__(self):
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1, got {self.dim}")
        if not (self.split_radius > 0 and math.isfinite(self.split_radius)):
            problems.append(f"split radius must be finite and > 0, got {self.split_radius}")
        tol = 1e-12
        if self.small is not None and self.small.rate > 0:
            s = self.small.sampler
            if s.dim != self.dim:
                problems.append(f"small-band sampler dim {s.dim} != model dim {self.dim}")
            if s.r_hi > self.split_radius * (1 + tol):
                problems.append(
                    f"small-band support [{s.r_lo}, {s.r_hi}] exceeds split radius {self.split_radius}"
                )
        if self.big is not None and self.big.rate > 0:
            s = self.big.sampler
            if s.dim != self.dim:
                problems.append(f"big-band sampler dim {s.dim} != model dim {self.dim}")
            if s.r_lo < self.split_radius * (1 - tol):
                problems.append(
                    f"big-band support starts at {s.r_lo}, inside split radius {self.split_radius}"
                )
        if problems:
            raise ConfigurationError(problems)

    @property
    def small_rate(self) -> float:
        return self.small.rate if self.small is not None else 0.0

    @property
    def big_rate(self) -> float:
        return self.big.rate if self.big is not None else 0.0

    def small_mean_measure(self) -> np.ndarray:
        """``integral z nu(dz)`` over the small band (zero if absent)."""
        if self.small is None:
            return np.zeros(self.dim)
        return self.small.mean_measure()

    def band(self, name: str) -> Optional[LevyBand]:
        if name == "U":
            return self.small
        if name == "V":
            return self.big
        raise ConfigurationError(f"band must be 'U' or 'V', got {name!r}")


def no_noise(dim: int) -> LevyModel:
    """Jump-free model placeholder (both bands absent)."""
    return LevyModel(dim=dim, split_radius=1.0)


# ---------------------------------------------------------------------------
# event sampling
# ---------------------------------------------------------------------------


_CHUNK_ROWS = 1024  # streams whose raw outputs are held at once
_INVERSION_MEAN = 10.0  # counts of a larger mean are drawn by inversion


def _no_events(dim):
    return np.empty(0, dtype=int), np.empty(0), np.empty((0, dim))


def _poisson_cdf(lam):
    """``(lo, cdf)``: the Poisson(``lam``) CDF at counts ``lo, lo + 1, ...``.

    The counts span the mode plus or minus ``10 sqrt(lam) + 25``, which
    holds all but less than 1e-20 of the mass.  Weights are built outward from
    the mode by the ratios ``lam / k`` and normalized to end at exactly
    1.0, so nothing underflows where ``exp(-lam)`` does (lam > 745).
    """
    mode = math.floor(lam)
    half = math.ceil(10.0 * math.sqrt(lam)) + 25
    lo, hi = max(0, mode - half), mode + half
    up = np.cumprod(lam / np.arange(mode + 1, hi + 1))
    down = np.cumprod(np.arange(mode, lo, -1) / lam)[::-1]
    cdf = np.cumsum(np.concatenate([down, [1.0], up]))
    return lo, cdf / cdf[-1]


def _poisson_counts(block, lam):
    """One Poisson(``lam``) count for every stream of ``block``.

    Below mean 10, numpy's multiplication method: multiply ``random()``
    doubles until the product falls to ``exp(-lam)``; the count is the
    number of doubles before that one, and a zero mean draws nothing.
    From mean 10 on, inversion of one double: the count is the first
    whose CDF exceeds it.
    """
    if lam >= _INVERSION_MEAN:
        lo, cdf = _poisson_cdf(lam)
        return lo + np.searchsorted(cdf, block.doubles(np.arange(block.size), 1)[:, 0], side="right")
    counts = np.zeros(block.size, dtype=np.int64)
    if lam == 0.0:
        return counts
    enlam = math.exp(-lam)
    prod = np.ones(block.size)
    live = np.arange(block.size)
    while live.size:
        prod[live] *= block.doubles(live, 1)[:, 0]
        live = live[prod[live] > enlam]
        counts[live] += 1
    return counts


def _arrival_times(u, horizon):
    """Sorted, distinct arrival times on ``(0, horizon]`` from each row of doubles ``u``.

    Given its count, a Poisson process's arrivals are uniform order
    statistics; a (probability-zero) time at 0 or a tie is nudged up by
    one ulp.
    """
    times = np.sort(horizon * u, axis=1)
    times[times == 0.0] = np.nextafter(0.0, horizon)
    for i in range(1, times.shape[1]):
        tie = times[:, i] <= times[:, i - 1]
        times[tie, i] = np.nextafter(times[tie, i - 1], math.inf)
    return times


def _draw_chunk(block, horizon, band):
    """Events of ``band`` on ``(0, horizon]`` for the streams of ``block``.

    Every stream draws its count, then its arrival times, then the
    ``uniforms`` blocks of its marks, one block of ``count`` doubles after
    another.  Returns ``(row, time, mark)`` in (row, time) order.
    """
    sampler = band.sampler
    out = [_no_events(sampler.dim)]
    counts = _poisson_counts(block, band.rate * horizon)
    hit = np.flatnonzero(counts)
    for c in np.unique(counts[hit]):
        rows = hit[counts[hit] == c]
        times = _arrival_times(block.doubles(rows, c), horizon)
        u = block.doubles(rows, sampler.uniforms * c).reshape(rows.size, sampler.uniforms, c)
        marks = sampler.from_uniforms(u.transpose(1, 0, 2).reshape(sampler.uniforms, rows.size * c))
        out.append((np.repeat(rows, c), times.ravel(), marks))
    row, time, mark = (np.concatenate(column) for column in zip(*out))
    # each row's events are one sorted run, so a stable sort by row keeps them in time order
    order = np.argsort(row, kind="stable")
    return row[order], time[order], mark[order]


def _draw_block_events(keys, horizon, band):
    """Events of ``band`` on ``(0, horizon]`` for the streams keyed by ``keys``.

    Row ``j`` is stream ``keys[j]`` read as :func:`_draw_chunk`
    describes: one Poisson process over the whole interval, whatever grid
    a solver later puts on it.  The streams are drawn :data:`_CHUNK_ROWS`
    at a time, so the raw outputs held at once stay bounded.  Returns
    ``(row, time, mark)`` in (row, time) order.
    """
    lam = band.rate * horizon
    per_event = 2 + band.sampler.uniforms
    # enough for nearly every stream of a chunk; a longer one grows the buffer
    words = int(1 + per_event * (lam + 6.0 * math.sqrt(lam) + 4.0))
    parts = [_no_events(band.sampler.dim)]
    for a in range(0, keys.shape[0], _CHUNK_ROWS):
        row, time, mark = _draw_chunk(StreamBlock(keys[a:a + _CHUNK_ROWS], words), horizon, band)
        parts.append((row + a, time, mark))
    return tuple(np.concatenate(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# nu-integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuEstimate:
    """Value and standard error of a band integral ``nu(h ; band)``."""

    value: float
    se: float


_DEFAULT_NU_STREAM = NoiseStream(seed=0, experiment=EXP_AUX, replica=0, particle=0, layer=Layer.AUX)


def nu_expectation(
    model: LevyModel,
    band: str,
    integrand: Callable[[np.ndarray], np.ndarray],
    *,
    exact: Optional[float] = None,
    samples: int = 10**6,
    stream: Optional[NoiseStream] = None,
) -> NuEstimate:
    """Evaluate ``nu(integrand ; band) = rate * E[integrand(Z)]``.

    Parameters
    ----------
    band : str
        'U' (small) or 'V' (big).
    integrand : callable
        Vectorized map from a ``(k, dim)`` mark array to ``(k,)`` values.
    exact : float, optional
        A registered closed form for the whole integral; when given it is
        returned with zero standard error and nothing is sampled.
    samples, stream
        Monte Carlo sample count and stream; the default stream is a
        pinned auxiliary address so repeated calls agree bit for bit.

    Raises
    ------
    IntegrabilityError
        If the estimate (or the declared exact value) is non-finite.
    """
    if exact is not None:
        if not math.isfinite(exact):
            raise IntegrabilityError(f"declared integral over band {band} is non-finite: {exact}")
        return NuEstimate(float(exact), 0.0)
    b = model.band(band)
    if b is None or b.rate == 0.0:
        return NuEstimate(0.0, 0.0)
    gen = (stream or _DEFAULT_NU_STREAM).generator()
    marks = b.sampler.draw(gen, samples)
    vals = np.asarray(integrand(marks), dtype=float)
    if vals.shape != (samples,):
        raise ConfigurationError(
            f"integrand must map (k, {model.dim}) marks to (k,) values, got shape {vals.shape}"
        )
    value = b.rate * float(vals.mean())
    if not math.isfinite(value):
        raise IntegrabilityError(f"nu-integral over band {band} is non-finite")
    se = float(b.rate * vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return NuEstimate(value, se)
