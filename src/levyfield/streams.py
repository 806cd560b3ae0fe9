"""Counter-based random streams.

Every random draw in the package is made from a stream addressed by
``(seed, experiment, replica, particle, layer)``.  The address is packed
into the 128-bit Philox key (seed in one word, the remaining ids
bit-packed into the other), so distinct addresses get provably disjoint
streams: no draw order, thread count, or job schedule can make two
streams collide or interleave.  Reproducing a run only requires the seed
and the address scheme, never the execution order.

Field widths (bits): experiment 16, replica 16, particle 28, layer 4.
Addresses outside those bounds are configuration errors.

A stream is numpy's ``Philox`` (Philox4x64-10, Salmon et al., SC'11)
keyed by its address: raw output ``i`` is word ``i % 4`` of the cipher
applied to counter ``i // 4 + 1``, and ``random()`` turns one output
into a double.  :func:`philox_words` computes those outputs for many keys
at once in numpy, so a :class:`StreamBlock` reads the streams of a whole
block of particles, one cursor per stream, without building a generator
per particle.

:data:`STREAM_SCHEME` names the map from addresses to draws.  Under
scheme 3, every draw of a particle or common layer (INIT, SMALL, BIG,
COMMON_SMALL, COMMON_BIG) is a fixed transform of its stream's
``random()`` doubles, read in order: normals by Box-Muller
(:func:`standard_normals`), exponential radii by ``-log1p(-u)``, and
each band one Poisson process on ``(0, T]``, whatever the time grid: a
count (multiplication below mean 10, inversion above), then uniform
arrival times, then marks through the samplers' ``from_uniforms``.  So a
stream read one double at a time from ``NoiseStream(...).generator()``
yields exactly what the block drawer makes of it.  Scheme 2 drew SMALL
with one count per uniform step; the other layers are unchanged.  AUX
streams (checker trials, projections, Monte Carlo integrals) are still
read through numpy's generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError

_EXPERIMENT_BITS = 16
_REPLICA_BITS = 16
_PARTICLE_BITS = 28
_LAYER_BITS = 4

MAX_EXPERIMENT = (1 << _EXPERIMENT_BITS) - 1
MAX_REPLICA = (1 << _REPLICA_BITS) - 1
MAX_PARTICLE = (1 << _PARTICLE_BITS) - 1

# which draw each address yields; bumped whenever that map changes
STREAM_SCHEME = 3

# Philox4x64-10 constants: round multipliers and key increments
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


class Layer(IntEnum):
    """Independent noise roles a single particle can consume."""

    INIT = 0          # initial condition draw
    SMALL = 1         # compensated small-jump band of the idiosyncratic noise
    BIG = 2           # big-jump band of the idiosyncratic noise
    COMMON_SMALL = 3  # compensated small-jump band of the common noise
    COMMON_BIG = 4    # big-jump band of the common noise
    AUX = 5           # everything else: checker trials, projections, MC integrals


def _address_problems(seed, experiment, replica, particles, layer) -> list[str]:
    problems = []
    if not 0 <= seed < 1 << 64:
        problems.append(f"seed {seed} outside [0, 2**64)")
    if not 0 <= experiment <= MAX_EXPERIMENT:
        problems.append(f"experiment {experiment} outside [0, {MAX_EXPERIMENT}]")
    if not 0 <= replica <= MAX_REPLICA:
        problems.append(f"replica {replica} outside [0, {MAX_REPLICA}]")
    ids = np.asarray(particles)
    bad = ids[(ids < 0) | (ids > MAX_PARTICLE)]
    if bad.size:
        problems.append(f"particle {bad[0]} outside [0, {MAX_PARTICLE}]")
    if not 0 <= int(layer) < 1 << _LAYER_BITS:
        problems.append(f"layer {layer} outside [0, {1 << _LAYER_BITS})")
    return problems


def _packed_ids(experiment, replica, particles, layer) -> np.ndarray:
    """Bit-packed (experiment, replica, particle, layer) words, one per particle."""
    word = (experiment << _REPLICA_BITS | replica) << (_PARTICLE_BITS + _LAYER_BITS) | int(layer)
    return np.uint64(word) | np.asarray(particles).astype(np.uint64) << np.uint64(_LAYER_BITS)


# Reserved experiment ids.  Orchestrators use these so that e.g. the
# reference fixed-point run can never share a stream with the systems
# that later consume its flow.
EXP_MAIN = 0
EXP_REFERENCE = 1
EXP_FRESH_COPIES = 2
EXP_AUX = 3


@dataclass(frozen=True)
class NoiseStream:
    """Address of one independent random stream.

    Parameters
    ----------
    seed : int
        Experiment master seed, any value in ``[0, 2**64)``.
    experiment, replica, particle : int
        Stream coordinates; bounds are 2**16, 2**16, 2**28.
    layer : Layer
        Which noise role this stream feeds.
    """

    seed: int
    experiment: int = 0
    replica: int = 0
    particle: int = 0
    layer: Layer = Layer.AUX

    def __post_init__(self):
        problems = _address_problems(self.seed, self.experiment, self.replica, [self.particle], self.layer)
        if problems:
            raise ConfigurationError(problems)

    def packed_id(self) -> int:
        """Bit-pack (experiment, replica, particle, layer) into one word."""
        return int(_packed_ids(self.experiment, self.replica, np.array([self.particle]), self.layer)[0])

    def generator(self) -> np.random.Generator:
        """Fresh generator for this address; same address, same draws."""
        key = np.array([self.seed, self.packed_id()], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def with_(self, **kwargs) -> "NoiseStream":
        """Copy with some coordinates replaced."""
        fields = {
            "seed": self.seed,
            "experiment": self.experiment,
            "replica": self.replica,
            "particle": self.particle,
            "layer": self.layer,
        }
        fields.update(kwargs)
        return NoiseStream(**fields)


@dataclass(frozen=True)
class StreamContext:
    """Partial address shared by all particles of one run.

    Drivers hold one of these and mint per-particle streams with
    :meth:`stream`; the (experiment, replica) block identifies the run.
    """

    seed: int
    experiment: int = EXP_MAIN
    replica: int = 0

    def stream(self, particle: int, layer: Layer) -> NoiseStream:
        return NoiseStream(self.seed, self.experiment, self.replica, particle, layer)

    def generator(self, particle: int, layer: Layer) -> np.random.Generator:
        return self.stream(particle, layer).generator()

    def keys(self, particles, layer: Layer) -> np.ndarray:
        """Philox keys ``(n, 2)`` of the particles' streams on ``layer``, one row per particle."""
        problems = _address_problems(self.seed, self.experiment, self.replica, particles, layer)
        if problems:
            raise ConfigurationError(problems)
        ids = _packed_ids(self.experiment, self.replica, particles, layer)
        return np.stack([np.full(ids.size, self.seed, dtype=np.uint64), ids], axis=1)

    def with_(self, **kwargs) -> "StreamContext":
        fields = {"seed": self.seed, "experiment": self.experiment, "replica": self.replica}
        fields.update(kwargs)
        return StreamContext(**fields)


# ---------------------------------------------------------------------------
# many streams at once
# ---------------------------------------------------------------------------


def _mulhilo(a, m):
    """High and low words of the 128-bit product ``a * m``, in 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _32
    m_lo, m_hi = m & _LOW32, m >> _32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = (a_lo * m_lo >> _32) + (lh & _LOW32) + (hl & _LOW32)
    return a_hi * m_hi + (lh >> _32) + (hl >> _32) + (mid >> _32), a * m


def philox_words(keys: np.ndarray, first_block: int, n_blocks: int) -> np.ndarray:
    """Raw outputs ``4 * first_block .. 4 * (first_block + n_blocks) - 1`` of each key's stream.

    ``keys`` is ``(n, 2)`` uint64; the result is ``(n, 4 * n_blocks)``
    uint64, bit-equal to ``numpy.random.Philox(key=key).random_raw`` at
    those positions.
    """
    shape = (keys.shape[0], n_blocks)
    x0 = np.broadcast_to(np.arange(first_block + 1, first_block + n_blocks + 1, dtype=np.uint64), shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = keys[:, :1], keys[:, 1:]
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=2).reshape(keys.shape[0], 4 * n_blocks)


class StreamBlock:
    """The raw outputs of many streams, read through one cursor per stream.

    Row ``j`` is the stream keyed by ``keys[j]``.  The first ``words``
    outputs of every stream are computed up front and the buffer grows
    when a cursor runs past it.  :meth:`doubles` reproduces numpy's
    ``random()``, the only read a stream of a particle or common layer
    has.
    """

    def __init__(self, keys: np.ndarray, words: int = 0):
        self.keys = keys
        self.pos = np.zeros(keys.shape[0], dtype=np.int64)
        self._raw = philox_words(keys, 0, -(-words // 4))

    @property
    def size(self) -> int:
        return self.keys.shape[0]

    def doubles(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` doubles of each of the (distinct) ``rows``, as ``(rows, count)``."""
        at = self.pos[rows, None] + np.arange(count)
        need = int(at.max()) + 1 if at.size else 0
        have = self._raw.shape[1]
        if need > have:
            grow = -(-max(need, have + 32) // 4) - have // 4
            self._raw = np.concatenate([self._raw, philox_words(self.keys, have // 4, grow)], axis=1)
        self.pos[rows] += count
        words = np.take(self._raw, at + (rows * self._raw.shape[1])[:, None])
        return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def standard_normals(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Box-Muller normals ``sqrt(-2 log(1 - u1)) cos(2 pi u2)``, one per pair of doubles.

    ``log1p(-u1)`` is finite for every double in ``[0, 1)``, 0.0 included.
    """
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
