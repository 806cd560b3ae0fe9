"""Coefficient sets for measure-dependent jump SDEs.

A :class:`CoefficientSet` bundles the drift ``b(x, mu)``, the compensated
small-jump coefficient ``f``, the big-jump coefficient ``g``, and an
optional common-noise pair ``(f0, g0)``.  All callables are vectorized:
states arrive as ``(n, d)`` arrays, jump coefficients additionally get a
matched ``(k, d)`` array of marks.  The measure argument is passed as a
context produced once per law by ``prepare(cloud)``, so families
precompute the cloud statistics they need (means, second moments)
instead of touching the cloud per particle.

Law statistics are row-aligned: the engine runs several laws in one
state array, so every callable gets one context per state row.  A family
whose law enters through a few numbers returns them from ``prepare`` as
a 1-D float vector; the engine stacks them as an ``(n, len)`` array, read
on the last axis (``ctx[..., i]``, so one unstacked vector serves a whole
batch too): the mean (linear), the mean and second moment (cubic, identity
kernel at beta = 2), an empty vector (frozen).  Any other context comes
as an object array, read row by row.

Built-in families:

``cubic_interaction``
    ``b(x, mu) = c1 x - c2 x |x|^2 + T(x, mu) 1``,
    ``f(x, z)  = c3 z (1 + c4 |x|^2)``,
    ``g(x, mu, z) = (1 + z)(1 + |x| + T(x, mu))``,
    with the kernel interaction ``T(x, mu) = mu(|h(x - .)|^beta)^(1/beta)``.
    The cubic damping must dominate the state dependence of the small
    jumps: construction requires ``c2 > 12 c3^2 c4^2 nu(|z|^2 ; U)``.
    ``f`` is kept measure-free (the chaos experiments require it); pass
    ``measure_in_f=True`` to add ``T`` inside ``f`` for fixed-point
    studies only.

``linear_meanfield``
    ``b(x, mu) = -a x + c mean(mu)``, ``f(x, z) = gamma_f z``, no big
    jumps; the optional common pair is ``f0 = gamma_f0 z``,
    ``g0 = gamma_g0 z``.  Linear dynamics make closed-form checks
    available (the fixed-point mean solves ``m' = (c - a) m``).

``frozen``
    Measure-independent ``b = -a x``, ``f = gamma_f z``, ``g = gamma_g z``;
    the law-to-path map is constant, so fixed-point iteration lands after
    one step, a sharp test of the iteration machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .measures import EmpiricalMeasure, interaction_term
from .noise import LevyModel, nu_expectation

__all__ = [
    "CoefficientSet",
    "FAMILIES",
    "register_family",
    "build_cubic_interaction",
    "build_linear_meanfield",
    "build_frozen",
    "u_band_abs2_moment",
]


@dataclass
class CoefficientSet:
    """Vectorized coefficients of one measure-dependent jump SDE.

    Callable signatures (``ctx`` is what ``prepare`` returned, or the
    engine's row-aligned stack of such contexts, see the module
    docstring):

    * ``drift(X, ctx) -> (n, d)``
    * ``small_jump(X, Z, ctx) -> (k, d)``  -- compensated band ``f``
    * ``big_jump(X, Z, ctx) -> (k, d)``    -- uncompensated band ``g``
    * ``small_compensator(X, ctx, levy) -> (n, d)`` -- closed form of
      ``integral_U f(x, mu, z) nu(dz)``, required with ``small_jump``
    * ``common_small(X, Z) -> (k, d)`` -- ``f0``, measure-free by contract
    * ``common_big(X, Z, ctx) -> (k, d)`` -- ``g0``
    * ``common_small_compensator(X, ctx, levy) -> (n, d)`` -- closed form
      of ``integral_U0 f0(x, z) nu0(dz)``, required with ``common_small``
    """

    name: str
    dim: int
    beta: float
    drift: Callable
    small_jump: Optional[Callable] = None
    big_jump: Optional[Callable] = None
    prepare: Callable = lambda mu: mu
    small_compensator: Optional[Callable] = None
    common_small: Optional[Callable] = None
    common_big: Optional[Callable] = None
    common_small_compensator: Optional[Callable] = None
    measure_free_small: bool = True
    declared_one_sided: Optional[float] = None
    declared_coercivity: Optional[float] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1, got {self.dim}")
        if not 1.0 <= self.beta <= 2.0:
            problems.append(f"beta must lie in [1, 2], got {self.beta}")
        if self.small_jump is not None and self.small_compensator is None:
            problems.append("small_jump needs its closed-form small_compensator")
        if self.common_small is not None and self.common_small_compensator is None:
            problems.append("common_small needs its closed-form common_small_compensator")
        if problems:
            raise ConfigurationError(problems)


def u_band_abs2_moment(levy: LevyModel) -> float:
    """``nu(|z|^2 ; U)``: sampler closed form when available, else MC."""
    if levy.small is None or levy.small.rate == 0.0:
        return 0.0
    closed = levy.small.sampler.abs_moment(2.0)
    if closed is not None:
        return levy.small.rate * float(closed)
    return nu_expectation(levy, "U", lambda z: (z * z).sum(axis=1)).value


# ---------------------------------------------------------------------------
# cubic interaction family
# ---------------------------------------------------------------------------


def _sq_norms(X):
    return (X * X).sum(axis=1)


def _per_law(fn):
    """``fn(law)``, recomputed only when the Lévy model changes; a run hands in the same one every step."""
    memo = [None, None]

    def cached(law):
        if memo[0] is not law:
            memo[:] = law, fn(law)
        return memo[1]

    return cached


def build_cubic_interaction(
    levy: LevyModel,
    *,
    dim: int,
    beta: float,
    c1: float = 1.0,
    c2: float = 1.0,
    c3: float = 0.1,
    c4: float = 1.0,
    kernel: Callable | str = "identity",
    kernel_lip: float = 1.0,
    measure_in_f: bool = False,
    declared_one_sided: Optional[float] = None,
    declared_coercivity: Optional[float] = None,
) -> CoefficientSet:
    """Cubic-damped drift with kernel interaction; see the module docstring.

    With the identity kernel and ``beta = 2`` the interaction reduces to
    cloud moments, ``T(x, mu)^2 = |x|^2 - 2 <x, mean(mu)> + mu(|y|^2)``,
    which keeps the interacting system at O(n) per step instead of O(n^2);
    ``prepare`` then returns the float vector ``(mean(mu), mu(|y|^2))``.
    Any other kernel or beta prepares the cloud itself.
    """
    if min(c1, c2, c3, c4) <= 0:
        raise ConfigurationError(f"cubic constants must be positive, got {(c1, c2, c3, c4)}")
    nu2 = u_band_abs2_moment(levy)
    bound = 12.0 * c3**2 * c4**2 * nu2
    if not c2 > bound:
        raise ConfigurationError(
            f"cubic damping too weak: need c2 > 12 c3^2 c4^2 nu(|z|^2; U) = {bound:.6g}, got c2 = {c2}"
        )

    if kernel != "identity" and not callable(kernel):
        raise ConfigurationError(f"kernel must be 'identity' (or a Python callable), got {kernel!r}")
    identity_fast = kernel == "identity" and beta == 2.0
    if kernel == "identity":
        kernel_fn = lambda v: v
        kernel_lip = 1.0
    else:
        kernel_fn = kernel

    if identity_fast:

        def prepare(mu: EmpiricalMeasure) -> np.ndarray:
            return np.append(mu.mean(), np.mean(_sq_norms(mu.points)))

        def interaction(X, ctx):
            # a row sum, not BLAS gemv: a row's value must not depend on its batch
            t2 = _sq_norms(X) - 2.0 * (X * ctx[..., :dim]).sum(axis=1) + ctx[..., dim]
            return np.sqrt(np.maximum(t2, 0.0))

    else:

        def prepare(mu: EmpiricalMeasure) -> EmpiricalMeasure:
            return mu

        def interaction(X, ctx):
            clouds = ctx if isinstance(ctx, np.ndarray) else [ctx] * len(X)
            return np.array(
                [interaction_term(mu, x, kernel_fn, beta) for x, mu in zip(X, clouds)], dtype=float
            )

    ones = np.ones(dim)
    mean_measure = _per_law(LevyModel.small_mean_measure)

    def drift(X, ctx):
        return c1 * X - X * _sq_norms(X)[:, None] * c2 + interaction(X, ctx)[:, None] * ones

    if measure_in_f:

        def small_jump(X, Z, ctx):
            scale = 1.0 + c4 * _sq_norms(X) + interaction(X, ctx)
            return c3 * Z * scale[:, None]

        def small_compensator(X, ctx, levy_model):
            scale = 1.0 + c4 * _sq_norms(X) + interaction(X, ctx)
            return c3 * scale[:, None] * mean_measure(levy_model)

    else:

        def small_jump(X, Z, ctx):
            scale = 1.0 + c4 * _sq_norms(X)
            return c3 * Z * scale[:, None]

        def small_compensator(X, ctx, levy_model):
            scale = 1.0 + c4 * _sq_norms(X)
            return c3 * scale[:, None] * mean_measure(levy_model)

    def big_jump(X, Z, ctx):
        scale = 1.0 + np.sqrt(_sq_norms(X)) + interaction(X, ctx)
        return (ones + Z) * scale[:, None]

    if declared_one_sided is None:
        # generous one-sided bound: linear growth 2 c1, kernel transport
        # sensitivity, and the state dependence of f against the cubic well
        declared_one_sided = 2.0 * c1 + 2.0 * kernel_lip + 1.0 + 4.0 * c3**2 * (1.0 + c4) ** 2 * nu2
    if declared_coercivity is None:
        declared_coercivity = 2.0 * c1 + 2.0 + 4.0 * c3**2 * (1.0 + c4) ** 2 * nu2

    return CoefficientSet(
        name="cubic_interaction",
        dim=dim,
        beta=beta,
        drift=drift,
        small_jump=small_jump,
        big_jump=big_jump,
        prepare=prepare,
        small_compensator=small_compensator,
        measure_free_small=not measure_in_f,
        declared_one_sided=declared_one_sided,
        declared_coercivity=declared_coercivity,
        params={"c1": c1, "c2": c2, "c3": c3, "c4": c4, "kernel_lip": kernel_lip},
    )


# ---------------------------------------------------------------------------
# linear mean-field family
# ---------------------------------------------------------------------------


def _constant_compensator(gamma):
    """The compensator ``gamma nu(z; U)`` of ``f = gamma z``, the same for every row and step."""
    compensator = _per_law(lambda law: gamma * law.small_mean_measure())
    return lambda X, ctx, levy_model: np.broadcast_to(compensator(levy_model), X.shape)


def build_linear_meanfield(
    levy: LevyModel,
    *,
    dim: int,
    beta: float,
    a: float = 1.0,
    c: float = 0.5,
    gamma_f: float = 0.0,
    gamma_f0: float = 0.0,
    gamma_g0: float = 0.0,
    declared_one_sided: Optional[float] = None,
    declared_coercivity: Optional[float] = None,
) -> CoefficientSet:
    """Linear drift toward the cloud mean; see the module docstring."""

    def prepare(mu: EmpiricalMeasure) -> np.ndarray:
        return mu.mean()

    def drift(X, mean):
        return -a * X + c * mean

    small_jump = None
    small_compensator = None
    if gamma_f != 0.0:

        def small_jump(X, Z, mean):
            return gamma_f * Z

        small_compensator = _constant_compensator(gamma_f)

    common_small = None
    common_small_compensator = None
    if gamma_f0 != 0.0:

        def common_small(X, Z):
            return gamma_f0 * Z

        common_small_compensator = _constant_compensator(gamma_f0)

    common_big = None
    if gamma_g0 != 0.0:

        def common_big(X, Z, mean):
            return gamma_g0 * Z

    if declared_one_sided is None:
        # 2<dB, dx> <= (c - 2a)|dx|^2 + c W^2 after Young; f is state-free
        declared_one_sided = max(c - 2.0 * a, c, 0.0)
    if declared_coercivity is None:
        declared_coercivity = max(c - 2.0 * a, c, 0.0) + 1.0 + gamma_f**2 * u_band_abs2_moment(levy)

    return CoefficientSet(
        name="linear_meanfield",
        dim=dim,
        beta=beta,
        drift=drift,
        small_jump=small_jump,
        big_jump=None,
        prepare=prepare,
        small_compensator=small_compensator,
        common_small=common_small,
        common_big=common_big,
        common_small_compensator=common_small_compensator,
        measure_free_small=True,
        declared_one_sided=declared_one_sided,
        declared_coercivity=declared_coercivity,
        params={"a": a, "c": c, "gamma_f": gamma_f, "gamma_f0": gamma_f0, "gamma_g0": gamma_g0},
    )


# ---------------------------------------------------------------------------
# frozen (measure-independent) family
# ---------------------------------------------------------------------------


def build_frozen(
    levy: LevyModel,
    *,
    dim: int,
    beta: float,
    a: float = 1.0,
    gamma_f: float = 0.0,
    gamma_g: float = 0.0,
    declared_one_sided: Optional[float] = None,
) -> CoefficientSet:
    """Measure-independent linear coefficients; see the module docstring."""

    def prepare(mu) -> np.ndarray:
        return np.empty(0)

    def drift(X, ctx):
        return -a * X

    small_jump = None
    small_compensator = None
    if gamma_f != 0.0:

        def small_jump(X, Z, ctx):
            return gamma_f * Z

        small_compensator = _constant_compensator(gamma_f)

    big_jump = None
    if gamma_g != 0.0:

        def big_jump(X, Z, ctx):
            return gamma_g * Z

    return CoefficientSet(
        name="frozen",
        dim=dim,
        beta=beta,
        drift=drift,
        small_jump=small_jump,
        big_jump=big_jump,
        prepare=prepare,
        small_compensator=small_compensator,
        measure_free_small=True,
        declared_one_sided=declared_one_sided if declared_one_sided is not None else 0.0,
        declared_coercivity=1.0,
        params={"a": a, "gamma_f": gamma_f, "gamma_g": gamma_g},
    )


FAMILIES: dict[str, Callable[..., CoefficientSet]] = {
    "cubic_interaction": build_cubic_interaction,
    "linear_meanfield": build_linear_meanfield,
    "frozen": build_frozen,
}


def register_family(name: str, builder: Callable[..., CoefficientSet]) -> None:
    """Register a coefficient-family builder under ``name`` for configs.

    Builders are called as ``builder(levy, dim=..., beta=..., **params)``
    and must return a :class:`CoefficientSet`.
    """
    FAMILIES[name] = builder
