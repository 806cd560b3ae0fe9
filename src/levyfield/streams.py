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
into a double.  :func:`philox_blocks`, the one place those outputs are
computed, makes the 4-word blocks of many ``(key, counter)`` pairs at
once, so a :class:`StreamBlock` reads the streams of a whole block of
particles, one cursor per stream, computing each only as far as it reads.

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

_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64-10 constants, one row per lane (x0, x2): round multipliers, whole and
# in 32-bit halves (literals, so importing runs no ufunc), and key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_HI = np.array([[0xD2E7470E], [0xCA5A8263]], dtype=np.uint64)
_PHILOX_M_LO = np.array([[0xE14C6C93], [0x95121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


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


def philox_blocks(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counter ``(counters[i], 0, 0, 0)`` under key ``keys[i]``, as ``(m, 4)`` uint64.

    ``keys`` is ``(m, 2)`` uint64 and ``counters`` ``(m,)``.  Counter
    ``c`` is block ``c - 1`` of the key's stream: bit-equal to
    ``numpy.random.Philox(key=key, counter=[c - 1, 0, 0, 0]).random_raw(4)``.
    The two multiplied words of a round, ``x0`` and ``x2``, run as one
    ``(2, m)`` lane array, and so do ``x1`` and ``x3``.
    """
    mul = np.stack([counters, np.zeros_like(counters)])
    add = np.zeros_like(mul)
    key = keys.T.copy()
    for _ in range(10):
        # high words of the 128-bit products of the lanes and their multipliers, from 32-bit halves
        a_lo, a_hi = mul & _LOW32, mul >> _32
        t = a_hi * _PHILOX_M_LO + (a_lo * _PHILOX_M_LO >> _32)
        mid = a_lo * _PHILOX_M_HI + (t & _LOW32)
        hi = a_hi * _PHILOX_M_HI + (t >> _32) + (mid >> _32)
        # x0, x2 = hi1 ^ x1 ^ k0, hi0 ^ x3 ^ k1 and x1, x3 = lo1, lo0
        mul, add = hi[::-1] ^ add ^ key, (mul * _PHILOX_M)[::-1]
        key += _PHILOX_W
    return np.stack([mul[0], add[0], mul[1], add[1]], axis=1)


class StreamBlock:
    """The raw outputs of many streams, read through one cursor per stream.

    Row ``j`` is the stream keyed by ``keys[j]``.  Each stream's outputs
    are computed in 4-word Philox blocks only as far as its reads reach,
    and held one row after another.  :meth:`doubles` reproduces numpy's
    ``random()``, the only read a stream of a particle or common layer
    has; :meth:`reserve` computes reads to come in one kernel call.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.pos = np.zeros(keys.shape[0], dtype=np.int64)
        self.blocks = np.zeros_like(self.pos)  # blocks computed per row
        self._first = np.zeros_like(self.pos)  # row of ``_held`` holding each stream's block 0
        self._held = np.empty((0, 4), dtype=np.uint64)

    @property
    def size(self) -> int:
        return self.keys.shape[0]

    def reserve(self, rows: np.ndarray, words) -> None:
        """Compute, in one kernel call, what the (distinct) ``rows`` lack of their next ``words`` outputs."""
        extra = -(-(self.pos[rows] + words) // 4) - self.blocks[rows]
        rows, extra = rows[extra > 0], extra[extra > 0]
        if rows.size:
            # counters blocks + 1 .. blocks + extra of each row, held right after the blocks it has
            counters = np.arange(1, extra.sum() + 1) + np.repeat(self.blocks[rows] + extra - np.cumsum(extra), extra)
            fresh = philox_blocks(self.keys[np.repeat(rows, extra)], counters.astype(np.uint64))
            self._held = np.insert(self._held, np.repeat(self._first[rows] + self.blocks[rows], extra), fresh, axis=0)
            self.blocks[rows] += extra
            self._first = np.cumsum(self.blocks) - self.blocks

    def doubles(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` doubles of each of the (distinct) ``rows``, as ``(rows, count)``."""
        self.reserve(rows, count)
        at = (4 * self._first[rows] + self.pos[rows])[:, None] + np.arange(count)
        self.pos[rows] += count
        return (self._held.reshape(-1)[at] >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def standard_normals(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Box-Muller normals ``sqrt(-2 log(1 - u1)) cos(2 pi u2)``, one per pair of doubles.

    ``log1p(-u1)`` is finite for every double in ``[0, 1)``, 0.0 included.
    """
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
