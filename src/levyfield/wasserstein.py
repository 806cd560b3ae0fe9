"""Wasserstein distances between equal-size uniform clouds.

For uniform clouds of the same size the Kantorovich problem has an
optimal coupling supported on a permutation (Birkhoff), so ``W_p`` is an
assignment problem and can be solved exactly.  Three routes:

* :func:`w_p_1d` sorts both samples, exact in one dimension;
* :func:`w_p_exact` solves the assignment in any dimension, exact but
  cubic in the cloud size and capped;
* :func:`w_p_sliced` averages 1D distances of random projections, an
  estimate with a standard error, for clouds too large for the exact
  route.  It is never used in pass/fail verdicts.

:func:`w_p` picks the exact route by the clouds' dimension; the flow
distances, the chaos replications and the assumption checker call it.

``scipy.optimize``, home of the assignment solver and slower to import
than a small run, loads at the first assignment solve: the first exact
distance at ``d >= 2``, never on a run whose clouds are one-dimensional.

Clouds of different sizes are rejected: producers are expected to match
particle counts, resampling upstream is the caller's job.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .measures import EmpiricalMeasure, MeasureFlow
from .streams import NoiseStream

EXACT_SIZE_CAP = 4096

__all__ = ["w_p", "w_p_1d", "w_p_exact", "w_p_sliced", "flow_distance", "conditional_distance", "EXACT_SIZE_CAP"]


def _as_points(mu) -> np.ndarray:
    if isinstance(mu, EmpiricalMeasure):
        return mu.points
    pts = np.asarray(mu, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _check_pair(x, y):
    if x.shape[0] != y.shape[0]:
        raise ConfigurationError(
            f"clouds must have equal sizes, got {x.shape[0]} and {y.shape[0]}; "
            "resample upstream before comparing"
        )
    if x.shape[1] != y.shape[1]:
        raise ConfigurationError(f"clouds mix dimensions {x.shape[1]} and {y.shape[1]}")


def w_p_1d(x, y, p: float) -> float:
    """Exact ``W_p`` between two equal-size samples on the line.

    The monotone (sorted) coupling is optimal in one dimension for every
    convex cost, so this is the ground truth the assignment route must
    reproduce.
    """
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    x = _as_points(x)
    y = _as_points(y)
    _check_pair(x, y)
    if x.shape[1] != 1:
        raise ConfigurationError(f"w_p_1d needs 1-dimensional clouds, got dim {x.shape[1]}")
    diffs = np.abs(np.sort(x[:, 0]) - np.sort(y[:, 0]))
    cost = math.fsum((diffs**p).tolist())
    return float((cost / x.shape[0]) ** (1.0 / p))


def _lexicographic_tie_pass(cost, perm):
    """Swap exactly-tied pairs toward lexicographically smaller plans.

    Among couplings of identical total cost the solver's pick is already
    deterministic; this pass additionally orders float-exact ties by
    lowest source index so the documented tie rule holds for the integer
    and mirrored clouds where ties actually occur.
    """
    n = perm.size
    for _ in range(64):
        paired = cost[np.arange(n), perm]
        swapped = False
        for i in range(n - 1):
            ji = perm[i]
            ci = paired[i]
            # candidates i' > i whose swap leaves the total cost bit-identical
            cand = np.nonzero(perm[i + 1 :] < ji)[0]
            for off in cand:
                k = i + 1 + off
                jk = perm[k]
                if cost[i, jk] + cost[k, ji] == ci + paired[k]:
                    perm[i], perm[k] = jk, ji
                    paired[i] = cost[i, jk]
                    paired[k] = cost[k, ji]
                    swapped = True
                    ji = perm[i]
                    ci = paired[i]
        if not swapped:
            return perm
    return perm


def _assignment(x, y, p):
    """Cost matrix ``|x_i - y_j|^p`` and its optimal permutation, ties ordered lexicographically."""
    from scipy.optimize import linear_sum_assignment  # see the module docstring

    diff = x[:, None, :] - y[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2)) ** p
    _, perm = linear_sum_assignment(cost)
    return cost, _lexicographic_tie_pass(cost, perm)


def w_p_exact(mu, nu, p: float, *, size_cap: int = EXACT_SIZE_CAP) -> float:
    """Exact ``W_p`` via the optimal assignment, any dimension.

    Cost entries are ``|x_i - y_j|^p``; the per-pair costs of the optimal
    permutation are totaled with compensated summation.  Clouds larger
    than ``size_cap`` are refused (cubic solve); use :func:`w_p_sliced`
    there.
    """
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    x = _as_points(mu)
    y = _as_points(nu)
    _check_pair(x, y)
    n = x.shape[0]
    if n > size_cap:
        raise ConfigurationError(
            f"cloud size {n} exceeds the exact-assignment cap {size_cap}; use w_p_sliced"
        )
    cost, perm = _assignment(x, y, p)
    total = math.fsum(cost[np.arange(n), perm].tolist())
    return float((total / n) ** (1.0 / p))


def w_p_sliced(
    mu,
    nu,
    p: float,
    *,
    directions: int = 64,
    stream: Optional[NoiseStream] = None,
) -> tuple[float, float]:
    """Sliced surrogate: mean of 1D distances over random projections.

    Returns ``(estimate, standard error)``.  Directions are isotropic unit
    vectors from ``stream`` (a pinned default when omitted), so the
    estimate is reproducible.  This is an estimate of a projection
    average, not of ``W_p`` itself, and is kept out of pass/fail checks.
    """
    if directions < 1:
        raise ConfigurationError(f"need at least one direction, got {directions}")
    x = _as_points(mu)
    y = _as_points(nu)
    _check_pair(x, y)
    d = x.shape[1]
    gen = (stream or NoiseStream(seed=0)).generator()
    dirs = gen.standard_normal((directions, d))
    norms = np.sqrt((dirs * dirs).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    dirs /= norms
    px = x @ dirs.T
    py = y @ dirs.T
    px.sort(axis=0)
    py.sort(axis=0)
    vals = (np.abs(px - py) ** p).mean(axis=0) ** (1.0 / p)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(directions)) if directions > 1 else math.inf
    return est, se


def w_p(mu, nu, p: float) -> float:
    """Exact ``W_p``: :func:`w_p_1d` in one dimension, :func:`w_p_exact` otherwise."""
    # both are looked up as module globals at call time, so a hook on either sees every call
    if _as_points(mu).shape[1] == 1:
        return w_p_1d(mu, nu, p)
    return w_p_exact(mu, nu, p)


def _w_auto(a: EmpiricalMeasure, b: EmpiricalMeasure, p: float, metric: str) -> float:
    if metric == "exact":
        return w_p(a, b, p)
    if metric == "sliced":
        return w_p_sliced(a, b, p)[0]
    raise ConfigurationError(f"unknown flow metric {metric!r}; choose 'exact' or 'sliced'")


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
    over the grid, which every flow must share.  The power mean of equal
    values is returned exactly (no round trip through the beta-th power),
    so a family of identical paths reduces bit-exactly to one path, and
    one path is :func:`flow_distance`.
    """
    if len(new_flows) != len(old_flows) or not new_flows:
        raise ConfigurationError("need equally many (>=1) new and old flows")
    if beta < 1:
        raise ConfigurationError(f"beta must be >= 1, got {beta}")
    if eta < 0:
        raise ConfigurationError(f"eta must be >= 0, got {eta}")
    times = new_flows[0].times
    if not all(np.array_equal(flow.times, times) for flow in (*new_flows, *old_flows)):
        raise ConfigurationError("flow grids differ; distances need a common grid")
    best = 0.0
    for idx, t in enumerate(times):
        vals = [_w_auto(new.clouds[idx], old.clouds[idx], beta, metric)
                for new, old in zip(new_flows, old_flows)]
        if all(v == vals[0] for v in vals):
            avg = vals[0]
        else:
            avg = (math.fsum(v**beta for v in vals) / len(vals)) ** (1.0 / beta)
        val = math.exp(-eta * t) * avg
        if val > best:
            best = val
    return best


def flow_distance(
    flow_a: MeasureFlow,
    flow_b: MeasureFlow,
    beta: float,
    gamma: float = 0.0,
    *,
    metric: str = "exact",
) -> float:
    """Discounted uniform distance ``sup_t e^(-gamma t) W_beta(mu_t, nu_t)``.

    The supremum runs over the common grid, which must be identical for
    both flows.  ``gamma = 0`` gives the plain uniform distance; the
    fixed-point driver uses a positive discount, under which the
    law-to-path map is a contraction.
    """
    return conditional_distance([flow_a], [flow_b], beta, gamma, metric=metric)
