"""Stream addressing: packing, determinism, independence of call order."""

import numpy as np
import pytest

from levyfield.errors import ConfigurationError
from levyfield.streams import (
    EXP_FRESH_COPIES,
    EXP_MAIN,
    EXP_REFERENCE,
    MAX_EXPERIMENT,
    MAX_PARTICLE,
    MAX_REPLICA,
    Layer,
    NoiseStream,
    Rekeyable,
    StreamBlock,
    StreamContext,
    philox_words,
)


def test_packed_id_is_injective():
    # product space small enough to enumerate, wide enough to cross bit fields
    ids = {
        NoiseStream(seed=1, experiment=e, replica=r, particle=p, layer=l).packed_id()
        for e in (0, 1, MAX_EXPERIMENT)
        for r in (0, 2, MAX_REPLICA)
        for p in (0, 3, 12345, MAX_PARTICLE)
        for l in Layer
    }
    assert len(ids) == 3 * 3 * 4 * len(Layer)


def test_same_id_reproduces_bit_identical_draws():
    a = NoiseStream(seed=42, experiment=0, replica=3, particle=17, layer=Layer.SMALL)
    b = NoiseStream(seed=42, experiment=0, replica=3, particle=17, layer=Layer.SMALL)
    x = a.generator().random(100)
    y = b.generator().random(100)
    assert np.array_equal(x, y)


def test_draws_do_not_depend_on_other_streams():
    # interleaving draws from a sibling stream must not shift this one
    ctx = StreamContext(seed=9, experiment=EXP_MAIN, replica=0)
    lone = ctx.generator(5, Layer.BIG).random(10)
    g_other = ctx.generator(6, Layer.BIG)
    g_self = ctx.generator(5, Layer.BIG)
    g_other.random(1000)
    assert np.array_equal(g_self.random(10), lone)


@pytest.mark.parametrize("field", ["experiment", "replica", "particle", "layer"])
def test_each_id_component_changes_the_draws(field):
    base = dict(seed=5, experiment=1, replica=1, particle=1, layer=Layer.INIT)
    alt = dict(base)
    alt[field] = Layer.AUX if field == "layer" else base[field] + 1
    x = NoiseStream(**base).generator().random(20)
    y = NoiseStream(**alt).generator().random(20)
    assert not np.array_equal(x, y)


def test_seed_changes_the_draws():
    a = NoiseStream(seed=1, experiment=0, replica=0, particle=0, layer=Layer.INIT)
    b = NoiseStream(seed=2, experiment=0, replica=0, particle=0, layer=Layer.INIT)
    assert not np.array_equal(a.generator().random(20), b.generator().random(20))


def test_bounds_are_enforced():
    with pytest.raises(ConfigurationError):
        NoiseStream(seed=0, experiment=MAX_EXPERIMENT + 1, replica=0, particle=0, layer=Layer.INIT)
    with pytest.raises(ConfigurationError):
        NoiseStream(seed=0, experiment=0, replica=MAX_REPLICA + 1, particle=0, layer=Layer.INIT)
    with pytest.raises(ConfigurationError):
        NoiseStream(seed=0, experiment=0, replica=0, particle=MAX_PARTICLE + 1, layer=Layer.INIT)
    with pytest.raises(ConfigurationError):
        NoiseStream(seed=0, experiment=0, replica=0, particle=-1, layer=Layer.INIT)


def test_reserved_experiment_blocks_are_distinct():
    assert len({EXP_MAIN, EXP_REFERENCE, EXP_FRESH_COPIES}) == 3


def test_with_rebuilds_untouched_fields():
    ctx = StreamContext(seed=3, experiment=EXP_MAIN, replica=2)
    moved = ctx.with_(replica=5)
    assert moved.seed == 3 and moved.experiment == EXP_MAIN and moved.replica == 5
    s = ctx.stream(4, Layer.SMALL).with_(layer=Layer.BIG)
    assert s.particle == 4 and s.layer == Layer.BIG


def test_vectorized_philox_matches_numpy():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**64, size=(64, 2), dtype=np.uint64)
    keys[::2, 0] |= np.uint64(1 << 63)  # top bits set in either word
    keys[1::2, 1] |= np.uint64(0xFFFF << 48)
    keys[0] = [2**64 - 1, 2**64 - 1]
    words = philox_words(keys, 2, 3)
    for key, got in zip(keys, words):
        assert np.array_equal(got, np.random.Philox(key=key).random_raw(20)[8:])


def test_keys_are_the_streams_philox_keys_and_enforce_bounds():
    ctx = StreamContext(seed=2**64 - 1, experiment=MAX_EXPERIMENT, replica=3)
    ids = [0, 7, MAX_PARTICLE]
    keys = ctx.keys(ids, Layer.COMMON_BIG)
    for p, key in zip(ids, keys):
        stream = ctx.stream(p, Layer.COMMON_BIG)
        assert list(key) == [stream.seed, stream.packed_id()]
    for bad in ([0, MAX_PARTICLE + 1], [-1]):
        with pytest.raises(ConfigurationError):
            ctx.keys(bad, Layer.SMALL)
    with pytest.raises(ConfigurationError):
        StreamContext(seed=0, replica=MAX_REPLICA + 1).keys([0], Layer.SMALL)


def test_block_reads_each_stream_as_its_own_generator_would():
    ctx = StreamContext(seed=9, experiment=EXP_REFERENCE, replica=4)
    keys = ctx.keys(range(6), Layer.BIG)
    block = StreamBlock(keys, Rekeyable(), words=8)
    rows = np.array([1, 4])
    first = block.doubles(rows, 3)
    normals = block.handoff(4, lambda g: g.standard_normal(5))
    later = block.doubles(rows, 40)  # past the buffer: it grows
    for j, row in enumerate(rows):
        gen = ctx.generator(int(row), Layer.BIG)
        assert np.array_equal(first[j], gen.random(3))
        if row == 4:
            assert np.array_equal(normals, gen.standard_normal(5))
        assert np.array_equal(later[j], gen.random(40))
    assert block.doubles(np.array([0]), 1)[0, 0] == ctx.generator(0, Layer.BIG).random()


@pytest.mark.parametrize("position", [0, 1, 3, 4, 9])
def test_rekeyed_generator_stands_where_a_fresh_one_would(position):
    key = StreamContext(seed=5).keys([3], Layer.INIT)[0]
    fresh = np.random.Generator(np.random.Philox(key=key))
    fresh.bit_generator.random_raw(position)
    moved = Rekeyable()
    gen = moved.at(key, position)
    assert moved.tell() == (position, (0, 0))
    assert np.array_equal(gen.standard_normal(7), fresh.standard_normal(7))
    assert moved.tell()[0] == 4 * (int(fresh.bit_generator.state["state"]["counter"][0]) - 1) + \
        fresh.bit_generator.state["buffer_pos"]
