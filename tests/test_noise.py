"""Noise statistics and reproducibility.

Statistical checks run at pinned seeds with pre-agreed critical values,
so they are deterministic regressions, not flaky hypothesis tests.
"""

import math

import numpy as np
import pytest
from scipy import stats

from levyfield import noise
from levyfield.errors import ConfigurationError, IntegrabilityError
from levyfield.noise import (
    _draw_block_events,
    _draw_block_steps,
    _draw_poisson_events,
    AnnulusUniform,
    FixedMark,
    LevyBand,
    LevyModel,
    MarkSampler,
    RadialExponential,
    no_noise,
    nu_expectation,
    v_beta_moment,
)
from levyfield.streams import Layer, NoiseStream, Rekeyable, StreamBlock, StreamContext

from conftest import make_levy


def _stream(seed=0, particle=0, layer=Layer.BIG):
    return NoiseStream(seed=seed, experiment=0, replica=0, particle=particle, layer=layer)


def _block_events(seed, n, grid_times, band, layer=Layer.BIG):
    """Events of particles ``0..n-1`` of block ``(seed, 0, 0)`` from the block drawer."""
    keys = StreamContext(seed=seed).keys(np.arange(n), layer)
    return _draw_block_events(keys, np.asarray(grid_times, dtype=float), band, Rekeyable())


def _oracle(stream, grid_times, band):
    """Per-stream reference: ``_draw_poisson_events`` step by step on the stream's own generator."""
    gen = stream.generator()
    steps, times, marks = [], [], []
    for k in range(grid_times.size - 1):
        t, z = _draw_poisson_events(gen, float(grid_times[k]), float(grid_times[k + 1]), band)
        steps.extend([k] * t.size)
        times.append(t)
        marks.append(z.reshape(t.size, band.sampler.dim))
    return np.array(steps, dtype=int), np.concatenate(times), np.concatenate(marks), gen


class _Float32Annulus(MarkSampler):
    """A mark law defined outside the package: 1D annulus marks from 32-bit draws.

    Its 32-bit draws leave half a raw output buffered in the bit generator
    whenever a draw takes an odd number of them.
    """

    def __init__(self, r_lo, r_hi):
        self.dim, self.r_lo, self.r_hi, self.mean = 1, r_lo, r_hi, np.zeros(1)

    def draw(self, gen, size):
        u = gen.random(size, dtype=np.float32).astype(float)
        sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
        return (sign * (self.r_lo + u * (self.r_hi - self.r_lo)))[:, None]


# ---------------------------------------------------------------------------
# law checks at pinned seeds
# ---------------------------------------------------------------------------


def test_big_jump_counts_pass_chi_square_against_poisson():
    model = make_levy(big_rate=2.0)
    lam = 2.0  # rate * horizon with T=1
    reps = 10_000
    counts = np.bincount(_block_events(11, reps, [0.0, 1.0], model.big)[0], minlength=reps)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)])
    expected *= reps
    # merge the tail so every expected cell stays >= 5
    while expected[-1] < 5 and expected.size > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected[-1] += reps - expected.sum()  # fold the remaining tail mass in
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    crit = stats.chi2.ppf(0.99, df=expected.size - 1)
    assert chi2 < crit, f"chi2 {chi2:.2f} >= {crit:.2f}"


def test_mean_and_variance_of_big_jump_counts():
    model = make_levy(big_rate=2.0)
    reps = 10_000
    counts = np.bincount(_block_events(12, reps, [0.0, 1.0], model.big)[0], minlength=reps)
    se = math.sqrt(2.0 / reps)
    assert abs(counts.mean() - 2.0) < 3 * se
    assert abs(counts.var() - 2.0) < 0.15


@pytest.mark.parametrize(
    "sampler",
    [AnnulusUniform(1, 1.0, 2.0), AnnulusUniform(3, 1.0, 2.0), RadialExponential(2, 1.0, 1.5)],
)
def test_mark_radii_pass_ks_against_declared_radial_law(sampler):
    gen = _stream(seed=13, layer=Layer.AUX).generator()
    radii = np.linalg.norm(sampler.draw(gen, 10_000), axis=1)
    radii.sort()
    n = radii.size
    cdf = np.array([sampler.radial_cdf(r) for r in radii])
    ks = max(
        float(np.max(np.arange(1, n + 1) / n - cdf)),
        float(np.max(cdf - np.arange(0, n) / n)),
    )
    crit = 1.628 / math.sqrt(n)  # one-sample KS critical value at 0.01
    assert ks < crit, f"KS {ks:.5f} >= {crit:.5f}"


def test_gap_lengths_and_mark_norms_are_uncorrelated():
    model = make_levy(big_rate=5.0)
    row, _, time, mark = _block_events(14, 2000, [0.0, 1.0], model.big)
    gaps, norms = [], []
    for i in range(2000):
        times = list(time[row == i])
        for t0, t1, z in zip([0.0] + times[:-1], times, mark[row == i]):
            gaps.append(t1 - t0)
            norms.append(float(np.linalg.norm(z)))
    r = float(np.corrcoef(gaps, norms)[0, 1])
    assert abs(r) < 3.0 / math.sqrt(len(gaps))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_zero_rate_band_yields_no_events():
    band = LevyBand(0.0, AnnulusUniform(1, 1.0, 2.0))
    keys = StreamContext(seed=0).keys(np.arange(4), Layer.BIG)
    block = StreamBlock(keys, Rekeyable())
    row, step, time, mark = _draw_block_steps(block, np.array([0.0, 10.0]), band)
    assert row.size == step.size == time.size == 0 and mark.shape == (0, 1)
    # like numpy's poisson(0), a zero rate draws nothing from the streams
    assert np.array_equal(block.pos, np.zeros(4))
    assert np.array_equal(no_noise(1).small_mean_measure(), np.zeros(1))


def test_big_jump_times_sorted_and_marks_outside_split():
    model = make_levy(big_rate=4.0, split=1.0, big_hi=3.0)
    row, step, time, mark = _block_events(15, 50, [0.0, 2.0], model.big)
    assert np.all(step == 0)
    for i in range(50):
        assert np.all(np.diff(time[row == i]) > 0)
    assert np.all((0.0 < time) & (time <= 2.0))
    assert np.all(np.linalg.norm(mark, axis=1) > 1.0)


def test_small_band_events_stay_inside_their_step():
    model = make_levy(small_rate=30.0)
    grid_times = np.array([0.2, 0.45, 0.7])
    row, step, time, mark = _block_events(0, 40, grid_times, model.small, layer=Layer.SMALL)
    assert row.size > 0
    assert np.all((grid_times[step] < time) & (time <= grid_times[step + 1]))
    assert np.all(np.linalg.norm(mark, axis=1) <= 1.0)
    # (step, row, time) order
    assert np.all(np.lexsort((time, row, step)) == np.arange(row.size))


def _next_bits(gen):
    state = gen.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None  # a stale value once the half is used
    return list(gen.bit_generator.random_raw(5)), half


_SAMPLERS = [
    AnnulusUniform(1, 0.1, 1.0),       # marks from random() doubles, drawn for the whole block
    FixedMark([0.5]),                  # no draws at all
    AnnulusUniform(2, 0.1, 1.0),       # normal directions: handed off
    RadialExponential(3, 0.1, 2.0),    # exponential radii: handed off
    _Float32Annulus(0.1, 1.0),         # 32-bit draws: handed off, a buffered half carried along
]


@pytest.mark.parametrize("rate", [0.5, 30.0, 900.0])  # 900 * 0.02 > 10 takes numpy's other Poisson sampler
def test_step_events_equal_drawing_step_by_step(rate, monkeypatch):
    # several chunks of streams, so rows are renumbered across chunks
    monkeypatch.setattr(noise, "_CHUNK_ROWS", 8)
    ctx = StreamContext(seed=17)
    ids = np.arange(20)
    for sampler in _SAMPLERS:
        band = LevyBand(rate, sampler)
        # the uniform grid of the small band, and the one-step grid [0, T] of the big band
        for grid_times in (np.linspace(0.0, 1.0, 51), np.array([0.0, 1.0])):
            keys = ctx.keys(ids, Layer.SMALL)
            row, step, time, mark = _draw_block_events(keys, grid_times, band, Rekeyable())
            block = StreamBlock(keys, Rekeyable())
            _draw_block_steps(block, grid_times, band)
            for j in ids:
                want_step, want_time, want_mark, gen = _oracle(ctx.stream(int(j), Layer.SMALL), grid_times, band)
                assert np.array_equal(step[row == j], want_step)
                assert np.array_equal(time[row == j], want_time)
                assert np.array_equal(mark[row == j], want_mark)
                # the stream's cursor, and any buffered 32-bit half, end where the oracle's generator stands
                assert block.handoff(int(j), _next_bits) == _next_bits(gen)


def test_same_stream_reproduces_identical_event_sequences():
    model = make_levy(big_rate=3.0)
    a = _block_events(16, 30, [0.0, 1.0], model.big)
    b = _block_events(16, 30, [0.0, 1.0], model.big)
    assert a[0].size > 0
    for ea, eb in zip(a, b):
        assert np.array_equal(ea, eb)


def test_fixed_mark_sampler_repeats_its_mark():
    s = FixedMark([1.5, 0.0])
    out = s.draw(_stream().generator(), 5)
    assert np.array_equal(out, np.tile([1.5, 0.0], (5, 1)))
    assert s.abs_moment(2.0) == 1.5**2


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


def test_nu_expectation_matches_annulus_closed_form():
    # E|z|^2 on a 1d annulus [1, 2] is (2^3 - 1) / (3 * (2 - 1)) = 7/3
    model = make_levy(big_rate=2.0, split=1.0, big_hi=2.0)
    est = nu_expectation(model, "V", lambda z: (z * z).sum(axis=1), samples=200_000)
    assert abs(est.value - 2.0 * 7.0 / 3.0) < 4 * est.se + 1e-3
    assert est.se > 0


def test_v_beta_moment_prefers_declared_value():
    model = LevyModel(
        dim=1,
        split_radius=1.0,
        big=LevyBand(1.0, AnnulusUniform(1, 1.0, 2.0)),
        beta_moment_v=4.25,
    )
    assert v_beta_moment(model, 2.0) == 4.25
    # closed form applies when the big band sits outside the unit ball
    assert abs(v_beta_moment(make_levy(big_rate=1.0), 2.0) - 7.0 / 3.0) < 1e-12


def test_nu_expectation_rejects_non_finite_integrands():
    model = make_levy(big_rate=1.0)
    with pytest.raises(IntegrabilityError):
        nu_expectation(model, "V", lambda z: np.full(z.shape[0], np.inf))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_band_support_must_respect_split_radius():
    with pytest.raises(ConfigurationError):
        LevyModel(dim=1, split_radius=1.0, small=LevyBand(1.0, AnnulusUniform(1, 0.5, 1.5)))
    with pytest.raises(ConfigurationError):
        LevyModel(dim=1, split_radius=1.0, big=LevyBand(1.0, AnnulusUniform(1, 0.5, 2.0)))


def test_band_and_model_parameter_guards():
    with pytest.raises(ConfigurationError):
        LevyBand(-1.0, AnnulusUniform(1, 1.0, 2.0))
    with pytest.raises(ConfigurationError):
        LevyBand(1.0, AnnulusUniform(1, 0.1, 1.0), inner_cutoff=0.0)
    with pytest.raises(ConfigurationError):
        AnnulusUniform(1, 1.0, 1.0)  # empty annulus
    with pytest.raises(ConfigurationError):
        LevyModel(dim=0, split_radius=1.0)
    with pytest.raises(ConfigurationError):
        LevyModel(dim=2, split_radius=1.0, big=LevyBand(1.0, AnnulusUniform(1, 1.0, 2.0)))


def test_truncated_band_carries_its_note():
    band = LevyBand(1.0, AnnulusUniform(1, 0.1, 1.0), inner_cutoff=0.1, truncation_note="drops |z|<=0.1")
    assert band.truncated and "0.1" in band.truncation_note
