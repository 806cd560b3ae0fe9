"""Initial-condition laws.

Every particle draws its initial state from its own INIT-layer stream, so
initial conditions inherit the package-wide stream discipline
(exchangeable, schedule-independent).  A law is a fixed transform of
``uniforms`` doubles per particle (:meth:`InitialLaw.from_uniforms`), so
the states of a whole block of particles are made at once from the raw
outputs of their streams.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .streams import standard_normals


class InitialLaw:
    """Law of one initial state in ``R^dim``, made from ``uniforms`` doubles.

    ``transform`` maps ``(uniforms, size)`` doubles, one column per
    particle, to ``(size, dim)`` states.
    """

    def __init__(self, dim: int, uniforms: int, transform: Callable[[np.ndarray], np.ndarray]):
        self.dim, self.uniforms, self._transform = dim, uniforms, transform

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self._transform(u)

    def scaled(self, factor: float) -> "InitialLaw":
        """The law of ``factor * X``, made from the same doubles."""
        factor = float(factor)
        return InitialLaw(self.dim, self.uniforms, lambda u: factor * self._transform(u))


def normal_initial(dim: int, mean=0.0, std: float = 1.0) -> InitialLaw:
    """Independent ``N(mean, std^2)`` coordinates, each from one Box-Muller pair."""
    mean_vec = np.broadcast_to(np.asarray(mean, dtype=float), (dim,)).copy()
    if std < 0:
        raise ConfigurationError(f"std must be >= 0, got {std}")
    return InitialLaw(dim, 2 * dim, lambda u: mean_vec + std * standard_normals(u[0::2], u[1::2]).T)


def point_initial(value) -> InitialLaw:
    """Every particle starts at ``value``; draws nothing."""
    point = np.atleast_1d(np.asarray(value, dtype=float)).copy()
    return InitialLaw(point.size, 0, lambda u: np.tile(point, (u.shape[1], 1)))


def uniform_box_initial(dim: int, lo=-1.0, hi=1.0) -> InitialLaw:
    """Uniform on the box ``[lo, hi)``, one double per coordinate."""
    lo_vec = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
    hi_vec = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
    if np.any(hi_vec <= lo_vec):
        raise ConfigurationError(f"uniform box needs lo < hi per coordinate, got {lo}, {hi}")
    return InitialLaw(dim, dim, lambda u: lo_vec + (hi_vec - lo_vec) * u.T)


INITIAL_SAMPLERS: dict[str, Callable[..., InitialLaw]] = {
    "normal": normal_initial,
    "point": lambda dim, value=0.0: point_initial(np.broadcast_to(np.asarray(value, dtype=float), (dim,))),
    "uniform_box": uniform_box_initial,
}
