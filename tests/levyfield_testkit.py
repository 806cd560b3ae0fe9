"""Plain builders and assertions shared by the test modules.

Everything here is deterministic: models are built from literal constants
and streams are addressed by explicit seeds, so any test can be re-run in
isolation and produce the identical failure.  The module has a name of its
own so that no other suite's ``conftest`` shadows it on the import path.
"""

from collections import Counter

import numpy as np

from levyfield.noise import AnnulusUniform, LevyBand, LevyModel
from levyfield.solver import SolverConfig
from levyfield.streams import NoiseStream, StreamContext


def make_levy(dim=1, small_rate=1.0, big_rate=0.5, split=1.0, big_hi=2.0):
    """Two-band model: uniform annulus marks on both sides of the split."""
    small = LevyBand(small_rate, AnnulusUniform(dim, 0.1, split)) if small_rate > 0 else None
    big = LevyBand(big_rate, AnnulusUniform(dim, split, big_hi)) if big_rate > 0 else None
    return LevyModel(dim=dim, split_radius=split, small=small, big=big)


def small_only_levy(dim=1, rate=1.0, split=1.0):
    return make_levy(dim=dim, small_rate=rate, big_rate=0.0, split=split)


def quick_config(**kw):
    kw.setdefault("paths", 64)
    kw.setdefault("tol", 1e-2)
    kw.setdefault("max_iter", 15)
    return SolverConfig(**kw)


def assert_paths_equal(pa, pb):
    assert np.array_equal(pa.times, pb.times)
    assert np.array_equal(pa.states, pb.states)
    assert len(pa.jumps) == len(pb.jumps)
    for ja, jb in zip(pa.jumps, pb.jumps):
        assert ja.time == jb.time and ja.band == jb.band
        assert np.array_equal(ja.mark, jb.mark)
        assert np.array_equal(ja.increment, jb.increment)


def count_generators(monkeypatch) -> Counter:
    """Count the streams drawn from here on, by stream layer.

    A stream is drawn either through a generator of its own
    (``NoiseStream.generator``) or as one row of a block of streams
    (``StreamContext.keys``); both are counted.
    """
    counts = Counter()
    mint = NoiseStream.generator
    keys = StreamContext.keys

    def counting(stream):
        counts[stream.layer] += 1
        return mint(stream)

    def counting_keys(ctx, particles, layer):
        out = keys(ctx, particles, layer)
        counts[layer] += out.shape[0]
        return out

    monkeypatch.setattr(NoiseStream, "generator", counting)
    monkeypatch.setattr(StreamContext, "keys", counting_keys)
    return counts
