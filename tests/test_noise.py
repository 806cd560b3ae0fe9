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
    _poisson_counts,
    AnnulusUniform,
    FixedMark,
    LevyBand,
    LevyModel,
    RadialExponential,
    no_noise,
    nu_expectation,
    v_beta_moment,
)
from levyfield.streams import Layer, NoiseStream, StreamBlock, StreamContext

from levyfield_testkit import make_levy


def _stream(seed=0, particle=0, layer=Layer.BIG):
    return NoiseStream(seed=seed, experiment=0, replica=0, particle=particle, layer=layer)


def _block_events(seed, n, grid_times, band, layer=Layer.BIG):
    """Events of particles ``0..n-1`` of block ``(seed, 0, 0)`` from the block drawer."""
    keys = StreamContext(seed=seed).keys(np.arange(n), layer)
    return _draw_block_events(keys, np.asarray(grid_times, dtype=float), band)


# ---------------------------------------------------------------------------
# scalar reference of stream scheme 2
# ---------------------------------------------------------------------------


def _scalar_count(next_u, lam):
    """Poisson count: multiplication below mean 10, inversion of one double from 10 on."""
    if lam == 0.0:
        return 0
    if lam < 10.0:
        prod, count = 1.0, 0
        while True:
            prod *= next_u()
            if prod <= math.exp(-lam):
                return count
            count += 1
    u, k, cdf = next_u(), 0, 0.0
    while True:
        cdf += math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
        if cdf > u:
            return k
        k += 1


def _scalar_directions(u, dim):
    if dim == 1:
        return np.where(u[0] < 0.5, -1.0, 1.0)[:, None]
    v = (np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])).T
    return v / np.sqrt((v * v).sum(axis=1, keepdims=True))


def _scalar_marks(sampler, u):
    """The marks of one step's events from their ``(uniforms, count)`` doubles.

    numpy, not ``math``: numpy's float64 ``log1p``/``cos`` may round
    differently from the C library's in the last bit.
    """
    if isinstance(sampler, FixedMark):
        return np.tile(sampler.mean, (u.shape[1], 1))
    d = sampler.dim
    if isinstance(sampler, AnnulusUniform):
        radius = (sampler.r_lo**d + u[0] * (sampler.r_hi**d - sampler.r_lo**d)) ** (1.0 / d)
    else:
        radius = sampler.r_lo - np.log1p(-u[0]) / sampler.decay
    return _scalar_directions(u[1:], d) * radius[:, None]


def _scalar_events(stream, grid_times, band):
    """Scheme 2 on one stream, read one ``random()`` double at a time.

    Per step: the count, then its arrival times, then the mark doubles,
    one block of ``count`` per mark uniform.  Also returns how many
    doubles were read.
    """
    gen = stream.generator()
    reads = 0

    def next_u():
        nonlocal reads
        reads += 1
        return gen.random()

    steps, times, marks = [], [], []
    for k in range(grid_times.size - 1):
        t0, t1 = float(grid_times[k]), float(grid_times[k + 1])
        count = _scalar_count(next_u, band.rate * (t1 - t0))
        t = sorted(t0 + (t1 - t0) * next_u() for _ in range(count))
        for i in range(count):
            if t[i] == t0 or (i and t[i] <= t[i - 1]):
                t[i] = math.nextafter(t[i - 1] if i else t0, math.inf)
        u = np.array([[next_u() for _ in range(count)] for _ in range(band.sampler.uniforms)])
        steps += [k] * count
        times += t
        marks.append(_scalar_marks(band.sampler, u.reshape(band.sampler.uniforms, count)))
    return np.array(steps, dtype=int), np.array(times), np.concatenate(marks), reads


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
    block = StreamBlock(keys)
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


_SAMPLERS = [
    *(AnnulusUniform(d, 0.1, 1.0) for d in (1, 2, 3)),          # uniform radius; a sign, or Box-Muller directions
    *(RadialExponential(d, 0.1, 2.0) for d in (1, 2, 3)),       # exponential radius -log1p(-u) / decay
    FixedMark([0.5]),                                           # no doubles at all
]


@pytest.mark.parametrize("rate", [0.5, 30.0, 900.0])  # 900 * 0.02 >= 10 takes the inversion
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
            row, step, time, mark = _draw_block_events(keys, grid_times, band)
            block = StreamBlock(keys)
            _draw_block_steps(block, grid_times, band)
            for j in ids:
                want_step, want_time, want_mark, reads = _scalar_events(ctx.stream(int(j), Layer.SMALL), grid_times, band)
                assert np.array_equal(step[row == j], want_step)
                assert np.array_equal(time[row == j], want_time)
                assert np.array_equal(mark[row == j], want_mark)
                assert block.pos[j] == reads


def _poisson_chi2(counts, lam):
    """Chi-square statistic of ``counts`` against Poisson(lam), cells merged to >= 5 expected, and its df."""
    ks = np.arange(int(counts.max()) + 2)
    expected = stats.poisson.pmf(ks, lam) * counts.size
    expected[0] += stats.poisson.cdf(-1, lam) * counts.size
    expected[-1] += stats.poisson.sf(ks[-1], lam) * counts.size
    observed = np.bincount(counts, minlength=ks.size).astype(float)
    # merge both tails until every cell expects at least 5
    lo, hi = 0, ks.size - 1
    while expected[lo] < 5:
        expected[lo + 1] += expected[lo]
        observed[lo + 1] += observed[lo]
        lo += 1
    while expected[hi] < 5:
        expected[hi - 1] += expected[hi]
        observed[hi - 1] += observed[hi]
        hi -= 1
    e, o = expected[lo:hi + 1], observed[lo:hi + 1]
    return float(((o - e) ** 2 / e).sum()), e.size - 1


@pytest.mark.parametrize("lam", [18.0, 1000.0])  # above 745, exp(-lam) underflows
def test_inverted_poisson_counts_pass_chi_square(lam):
    block = StreamBlock(StreamContext(seed=21).keys(np.arange(10_000), Layer.BIG))
    counts = _poisson_counts(block, lam)
    assert np.all(block.pos == 1)  # one double per count
    chi2, df = _poisson_chi2(counts, lam)
    crit = stats.chi2.ppf(0.99, df=df)
    assert chi2 < crit, f"chi2 {chi2:.2f} >= {crit:.2f} with {df} df"


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
        AnnulusUniform(1, 1.0, 1.0)  # empty annulus
    with pytest.raises(ConfigurationError):
        LevyModel(dim=0, split_radius=1.0)
    with pytest.raises(ConfigurationError):
        LevyModel(dim=2, split_radius=1.0, big=LevyBand(1.0, AnnulusUniform(1, 1.0, 2.0)))
