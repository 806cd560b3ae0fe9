"""Monotonicity and coercivity checkers.

These are falsifiers, not provers: they hunt for a witness tuple that
breaks the declared inequality over a deterministic sample of states and
clouds (compact boxes plus adversarial rays at large radius, where
coercivity violations actually show up).  A pass certifies the sampled
region only; the report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigurationError
from .measures import EmpiricalMeasure, beta_norm
from .noise import LevyModel
from .streams import EXP_AUX, Layer, NoiseStream
from .wasserstein import w_p

__all__ = [
    "AssumptionReport",
    "default_pair_sampler",
    "default_point_sampler",
    "check_one_sided_lipschitz",
    "check_coercivity",
]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one falsification run.

    ``worst_ratio`` is the largest left-hand side over the constant-free
    right-hand side seen; the verdict compares it to the declared
    constant within ``tolerance`` (relative).  ``witness`` records the
    tuple that achieved it.
    """

    assumption: str
    declared_constant: float
    worst_ratio: float
    passed: bool
    trials: int
    tolerance: float
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.assumption}: worst ratio {self.worst_ratio:.6g} "
            f"vs declared {self.declared_constant:.6g} over {self.trials} trials"
        )


def _aux_stream(seed):
    return NoiseStream(seed=seed, experiment=EXP_AUX, replica=0, particle=0, layer=Layer.AUX)


def default_pair_sampler(
    dim: int,
    cloud_size: int = 64,
    box: float = 3.0,
    ray_radii=(10.0, 100.0, 1000.0),
    ray_fraction: float = 0.2,
):
    """Trial sampler for two-point checks: (x, y, mu1, mu2) per call.

    Bulk trials draw both states uniformly from ``[-box, box]^d`` and two
    Gaussian clouds with random centers and scales.  A ``ray_fraction``
    of trials instead places ``x`` at a large radius with ``y = -x``, the
    classic direction in which super-linear drifts break one-sided
    bounds.
    """

    def draw(gen):
        if gen.random() < ray_fraction:
            direction = gen.standard_normal(dim)
            direction /= max(float(np.sqrt((direction * direction).sum())), 1e-300)
            radius = float(gen.choice(ray_radii))
            x = radius * direction
            y = -x
        else:
            x = gen.uniform(-box, box, dim)
            y = gen.uniform(-box, box, dim)
        c1 = gen.standard_normal(dim) * gen.uniform(0.5, 2.0)
        c2 = gen.standard_normal(dim) * gen.uniform(0.5, 2.0)
        mu1 = EmpiricalMeasure(c1 + gen.uniform(0.2, 1.5) * gen.standard_normal((cloud_size, dim)))
        mu2 = EmpiricalMeasure(c2 + gen.uniform(0.2, 1.5) * gen.standard_normal((cloud_size, dim)))
        return x, y, mu1, mu2

    return draw


def default_point_sampler(
    dim: int,
    cloud_size: int = 64,
    box: float = 3.0,
    ray_radii=(10.0, 100.0, 1000.0),
    ray_fraction: float = 0.2,
):
    """Trial sampler for single-point checks: (x, mu) per call."""

    def draw(gen):
        if gen.random() < ray_fraction:
            direction = gen.standard_normal(dim)
            direction /= max(float(np.sqrt((direction * direction).sum())), 1e-300)
            x = float(gen.choice(ray_radii)) * direction
        else:
            x = gen.uniform(-box, box, dim)
        center = gen.standard_normal(dim) * gen.uniform(0.5, 2.0)
        mu = EmpiricalMeasure(center + gen.uniform(0.2, 1.5) * gen.standard_normal((cloud_size, dim)))
        return x, mu

    return draw


def _mark_batch(levy: LevyModel, band: str, gen, size: int):
    b = levy.band(band)
    if b is None or b.rate == 0.0:
        return None
    return b.sampler.draw(gen, size)


def check_one_sided_lipschitz(
    coeffs: CoefficientSet,
    levy: LevyModel,
    declared: float,
    *,
    variant: str = "A1",
    p: Optional[float] = None,
    trials: int = 10_000,
    seed: int = 0,
    sampler: Optional[Callable] = None,
    mark_batch: int = 4096,
    tolerance: float = 1e-6,
) -> AssumptionReport:
    """Falsify the joint one-sided bound on (b, f) and the mark-Lipschitz bound on g.

    Variant ``A1`` tests, over sampled ``(x, y, mu1, mu2)``,

        ``2 <b(x,mu1) - b(y,mu2), x - y> + nu(|f(x,mu1,.) - f(y,mu2,.)|^2 ; U)
          <= L (|x - y|^2 + W_beta(mu1, mu2)^2)``

    together with ``|g(x,mu1,z) - g(y,mu2,z)| <= L (1 + |z|)(|x-y| + W_beta)``
    over a pinned mark batch.  Variant ``A1p`` is the chaos-mode form: the
    right-hand side becomes ``L (|x-y| + W_p) |x-y|`` with the user's
    ``p < beta``, ``W_p`` replaces ``W_beta`` in the g bound, and ``f``
    must be measure-free.

    The f-term is a Monte Carlo average over ``mark_batch`` pinned U-band
    marks (common across trials), so the worst ratio is deterministic in
    ``seed``.
    """
    if variant not in ("A1", "A1p"):
        raise ConfigurationError(f"variant must be 'A1' or 'A1p', got {variant!r}")
    if variant == "A1p":
        if p is None or not 1.0 <= p < coeffs.beta:
            raise ConfigurationError(f"chaos variant needs 1 <= p < beta, got p={p}, beta={coeffs.beta}")
        if not coeffs.measure_free_small:
            raise ConfigurationError("chaos variant requires a measure-free small-jump coefficient")
    w_order = coeffs.beta if variant == "A1" else p

    gen = _aux_stream(seed).generator()
    u_marks = _mark_batch(levy, "U", gen, mark_batch) if coeffs.small_jump is not None else None
    g_marks = None
    if coeffs.big_jump is not None:
        parts = []
        for band in ("U", "V"):
            m = _mark_batch(levy, band, gen, mark_batch // 2)
            if m is not None:
                parts.append(m)
        if parts:
            g_marks = np.concatenate(parts, axis=0)
    draw = sampler or default_pair_sampler(coeffs.dim)

    worst = -math.inf
    witness = {}
    u_rate = levy.small_rate
    for k in range(trials):
        x, y, mu1, mu2 = draw(gen)
        dx = x - y
        dist2 = float((dx * dx).sum())
        w = w_p(mu1, mu2, w_order)
        if variant == "A1":
            base = dist2 + w * w
        else:
            base = (math.sqrt(dist2) + w) * math.sqrt(dist2)
        ctx1 = coeffs.prepare(mu1)
        ctx2 = coeffs.prepare(mu2)
        X = x[None, :]
        Y = y[None, :]
        lhs = 2.0 * float(((coeffs.drift(X, ctx1) - coeffs.drift(Y, ctx2))[0] * dx).sum())
        if u_marks is not None and u_rate > 0:
            k_m = u_marks.shape[0]
            fx = coeffs.small_jump(np.broadcast_to(x, (k_m, coeffs.dim)), u_marks, ctx1)
            fy = coeffs.small_jump(np.broadcast_to(y, (k_m, coeffs.dim)), u_marks, ctx2)
            df = fx - fy
            lhs += u_rate * float((df * df).sum(axis=1).mean())
        ratio = -math.inf
        if base > 0:
            ratio = lhs / base
        elif lhs > tolerance:
            ratio = math.inf
        if g_marks is not None:
            gx = coeffs.big_jump(np.broadcast_to(x, (g_marks.shape[0], coeffs.dim)), g_marks, ctx1)
            gy = coeffs.big_jump(np.broadcast_to(y, (g_marks.shape[0], coeffs.dim)), g_marks, ctx2)
            dg = np.sqrt(((gx - gy) ** 2).sum(axis=1))
            denom = (1.0 + np.sqrt((g_marks * g_marks).sum(axis=1))) * (math.sqrt(dist2) + w)
            if float(denom.min()) > 0:
                ratio = max(ratio, float((dg / denom).max()))
        if ratio > worst:
            worst = ratio
            witness = {"trial": k, "x": x, "y": y, "mu1": mu1, "mu2": mu2}
    passed = worst <= declared + tolerance * max(1.0, abs(declared))
    return AssumptionReport(
        assumption=f"one_sided_lipschitz[{variant}]",
        declared_constant=declared,
        worst_ratio=worst,
        passed=passed,
        trials=trials,
        tolerance=tolerance,
        witness=witness,
        notes="sampled-region falsification; f-term via pinned mark batch",
    )


def check_coercivity(
    coeffs: CoefficientSet,
    levy: LevyModel,
    declared: float,
    *,
    variant: str = "A2",
    levy_common: Optional[LevyModel] = None,
    trials: int = 10_000,
    seed: int = 0,
    sampler: Optional[Callable] = None,
    mark_batch: int = 4096,
    tolerance: float = 1e-6,
) -> AssumptionReport:
    """Falsify the coercivity bound over sampled ``(x, mu)``.

    Variant ``A2``:   ``2 <x, b(x,mu)> + nu(|f(x,mu,.)|^2 ; U)
                        <= L (1 + |x|^2 + mu(|.|^beta)^(2/beta))``.
    Variant ``A21``:  the same right-hand side must separately dominate
    ``<x, b>`` and ``nu(|f|^2 ; U)`` (the stronger form that buys the
    running-supremum moment bound).
    Variant ``B2``:   the common-noise form; adds ``nu0(|f0|^2 ; U0)`` on
    the left and uses ``1 + |x|^2 + |x| mu(|.|^beta)^(1/beta)`` on the
    right (requires ``levy_common``).
    """
    if variant not in ("A2", "A21", "B2"):
        raise ConfigurationError(f"variant must be 'A2', 'A21' or 'B2', got {variant!r}")
    if variant == "B2" and coeffs.common_small is not None and levy_common is None:
        raise ConfigurationError("variant B2 with a common small-jump coefficient needs levy_common")

    gen = _aux_stream(seed).generator()
    u_marks = _mark_batch(levy, "U", gen, mark_batch) if coeffs.small_jump is not None else None
    u0_marks = None
    if variant == "B2" and coeffs.common_small is not None and levy_common is not None:
        u0_marks = _mark_batch(levy_common, "U", gen, mark_batch)
    draw = sampler or default_point_sampler(coeffs.dim)

    beta = coeffs.beta
    worst = -math.inf
    witness = {}
    for k in range(trials):
        x, mu = draw(gen)
        ctx = coeffs.prepare(mu)
        X = x[None, :]
        xb = float((coeffs.drift(X, ctx)[0] * x).sum())
        f2 = 0.0
        if u_marks is not None and levy.small_rate > 0:
            vals = coeffs.small_jump(np.broadcast_to(x, (u_marks.shape[0], coeffs.dim)), u_marks, ctx)
            f2 = levy.small_rate * float((vals * vals).sum(axis=1).mean())
        bn = beta_norm(mu, beta)
        if variant == "B2":
            base = 1.0 + float((x * x).sum()) + math.sqrt(float((x * x).sum())) * bn
            lhs = 2.0 * xb + f2
            if u0_marks is not None:
                vals0 = coeffs.common_small(np.broadcast_to(x, (u0_marks.shape[0], coeffs.dim)), u0_marks)
                lhs += levy_common.small_rate * float((vals0 * vals0).sum(axis=1).mean())
            ratio = lhs / base
        else:
            # mu(|.|^beta)^(2/beta) is the squared beta power mean
            base = 1.0 + float((x * x).sum()) + bn * bn
            if variant == "A2":
                ratio = (2.0 * xb + f2) / base
            else:
                ratio = max(xb, f2) / base
        if ratio > worst:
            worst = ratio
            witness = {"trial": k, "x": x, "mu": mu}
    passed = worst <= declared + tolerance * max(1.0, abs(declared))
    return AssumptionReport(
        assumption=f"coercivity[{variant}]",
        declared_constant=declared,
        worst_ratio=worst,
        passed=passed,
        trials=trials,
        tolerance=tolerance,
        witness=witness,
        notes="sampled-region falsification; f-terms via pinned mark batch",
    )
