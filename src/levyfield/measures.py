"""Empirical measures, measure flows, and measure functionals.

Laws are represented throughout by uniform-weight point clouds: the
mean-field limit, Picard iterates, and particle snapshots are all clouds,
so every distance ever computed is a cloud-to-cloud distance and the only
approximation channel is the particle count.  Flows interpolate
piecewise-constantly: ``flow.at(t)`` is the cloud at the nearest grid
time <= t, matching the solver's convention of freezing the measure
argument at the start of each step.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError


class EmpiricalMeasure:
    """Uniform-weight cloud of ``n`` points in ``R^d``.

    The point array is copied and frozen on construction; a measure never
    mutates after it is built.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigurationError(f"cloud must be a non-empty (n, d) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ConfigurationError("cloud contains non-finite points")
        pts.flags.writeable = False
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        # ndarray.mean's own sum and division without its call overhead (one mean per block and step)
        return np.add.reduce(self.points, axis=0) / self.points.shape[0]

    def beta_norm(self, beta: float) -> float:
        return beta_norm(self, beta)

    def __repr__(self):
        return f"EmpiricalMeasure(n={len(self)}, dim={self.dim})"


def beta_norm(mu: EmpiricalMeasure, beta: float) -> float:
    """Power mean ``mu(|.|^beta)^(1/beta)`` of a cloud.

    Monotone in beta by Jensen, which the property tests exercise.
    """
    if beta <= 0:
        raise ConfigurationError(f"beta must be > 0, got {beta}")
    norms = np.sqrt((mu.points * mu.points).sum(axis=1))
    return float(np.mean(norms**beta) ** (1.0 / beta))


def interaction_term(
    mu: EmpiricalMeasure, x: np.ndarray, kernel: Callable[[np.ndarray], np.ndarray], beta: float
) -> float:
    """Kernel interaction ``( (1/n) sum_j |kernel(x - y_j)|^beta )^(1/beta)``.

    ``kernel`` maps a ``(n, d)`` array of differences to ``(n, d)`` (or
    ``(n,)`` for scalar-valued kernels).  For a ``Lip(kernel)``-Lipschitz
    kernel the map ``mu -> interaction_term(mu, x, ...)`` is
    ``Lip(kernel)``-Lipschitz in the beta-Wasserstein distance, the bound
    the property tests check against the exact coupling distance.
    """
    if beta <= 0:
        raise ConfigurationError(f"beta must be > 0, got {beta}")
    x = np.asarray(x, dtype=float)
    diffs = x[None, :] - mu.points
    vals = np.asarray(kernel(diffs), dtype=float)
    if vals.ndim == 2:
        vals = np.sqrt((vals * vals).sum(axis=1))
    else:
        vals = np.abs(vals)
    return float(np.mean(vals**beta) ** (1.0 / beta))


class MeasureFlow:
    """A cloud per grid time, looked up piecewise-constantly from the left.

    ``times`` must be strictly increasing; clouds must share one
    dimension.  ``at(t)`` returns the cloud at the largest grid time <= t;
    querying before the first time is an error.
    """

    __slots__ = ("times", "clouds")

    def __init__(self, times, clouds: Sequence[EmpiricalMeasure]):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size != len(clouds) or times.size == 0:
            raise ConfigurationError(
                f"need one cloud per time, got {times.size} times and {len(clouds)} clouds"
            )
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("flow times must be strictly increasing")
        dims = {c.dim for c in clouds}
        if len(dims) > 1:
            raise ConfigurationError(f"flow clouds mix dimensions: {sorted(dims)}")
        times = times.copy()
        times.flags.writeable = False
        self.times = times
        self.clouds = list(clouds)

    @property
    def dim(self) -> int:
        return self.clouds[0].dim

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def at(self, t: float) -> EmpiricalMeasure:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            raise ConfigurationError(f"flow queried at t={t} before first grid time {self.times[0]}")
        return self.clouds[idx]

    @staticmethod
    def constant(times, cloud: EmpiricalMeasure) -> "MeasureFlow":
        """Constant-in-time flow, the canonical fixed-point starting guess."""
        times = np.asarray(times, dtype=float)
        return MeasureFlow(times, [cloud] * times.size)

    def __repr__(self):
        return f"MeasureFlow(times={self.times.size}, n={len(self.clouds[0])}, dim={self.dim})"


def lyapunov_diagnostic(states: np.ndarray, beta: float) -> float:
    """Ensemble average of ``V_beta(x) = (1 + |x|^2)^(beta/2)``.

    The quantity whose supremum over time stays bounded (affinely in the
    initial moment) exactly when the coercivity condition holds; the
    moment experiment tracks it along simulated flows.
    """
    if not 1.0 <= beta <= 2.0:
        raise ConfigurationError(f"beta must lie in [1, 2], got {beta}")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    sq = (states * states).sum(axis=1)
    return float(np.mean((1.0 + sq) ** (beta / 2.0)))
