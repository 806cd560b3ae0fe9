"""Noise statistics and reproducibility.

Statistical checks run at pinned seeds with pre-agreed critical values,
so they are deterministic regressions, not flaky hypothesis tests.
"""

import math

import numpy as np
import pytest
from scipy import stats

from levyfield.errors import ConfigurationError, IntegrabilityError
from levyfield.noise import (
    _draw_poisson_events,
    _draw_step_events,
    AnnulusUniform,
    FixedMark,
    LevyBand,
    LevyModel,
    RadialExponential,
    no_noise,
    nu_expectation,
    sample_big_jumps,
    sample_small_jumps,
    v_beta_moment,
)
from levyfield.streams import Layer, NoiseStream

from conftest import make_levy


def _stream(seed=0, particle=0, layer=Layer.BIG):
    return NoiseStream(seed=seed, experiment=0, replica=0, particle=particle, layer=layer)


# ---------------------------------------------------------------------------
# law checks at pinned seeds
# ---------------------------------------------------------------------------


def test_big_jump_counts_pass_chi_square_against_poisson():
    model = make_levy(big_rate=2.0)
    lam = 2.0  # rate * horizon with T=1
    reps = 10_000
    counts = np.array(
        [len(sample_big_jumps(_stream(seed=11, particle=i), 1.0, model)) for i in range(reps)]
    )
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
    counts = np.array(
        [len(sample_big_jumps(_stream(seed=12, particle=i), 1.0, model)) for i in range(reps)]
    )
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
    gaps, norms = [], []
    for i in range(2000):
        ev = sample_big_jumps(_stream(seed=14, particle=i), 1.0, model)
        times = [e.time for e in ev]
        for t0, t1, e in zip([0.0] + times[:-1], times, ev):
            gaps.append(t1 - t0)
            norms.append(float(np.linalg.norm(e.mark)))
    r = float(np.corrcoef(gaps, norms)[0, 1])
    assert abs(r) < 3.0 / math.sqrt(len(gaps))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_zero_rate_band_yields_no_events():
    model = make_levy(big_rate=0.0)
    assert sample_big_jumps(_stream(), 10.0, model) == []
    s = sample_small_jumps(_stream(layer=Layer.SMALL), (0.0, 1.0), no_noise(1))
    assert s.events == [] and np.array_equal(s.compensator, np.zeros(1))


def test_big_jump_times_sorted_and_marks_outside_split():
    model = make_levy(big_rate=4.0, split=1.0, big_hi=3.0)
    for i in range(50):
        ev = sample_big_jumps(_stream(seed=15, particle=i), 2.0, model)
        times = np.array([e.time for e in ev])
        assert np.all(np.diff(times) > 0)
        assert all(0.0 < e.time <= 2.0 for e in ev)
        for e in ev:
            assert np.linalg.norm(e.mark) > 1.0
            assert e.band == "V"


def test_small_jump_compensator_is_interval_times_mean_measure():
    model = make_levy(small_rate=3.0)
    s = sample_small_jumps(_stream(layer=Layer.SMALL), (0.2, 0.7), model)
    assert np.allclose(s.compensator, 0.5 * model.small_mean_measure())
    assert all(0.2 < e.time <= 0.7 and e.band == "U" for e in s.events)


@pytest.mark.parametrize("rate", [0.5, 30.0, 900.0])  # 900 * 0.02 > 10 takes numpy's other Poisson sampler
def test_step_events_equal_drawing_step_by_step(rate):
    band = LevyBand(rate, RadialExponential(2, 0.1, 2.0))
    grid_times = np.linspace(0.0, 1.0, 51)
    for particle in range(20):
        by_step = _stream(seed=17, particle=particle, layer=Layer.SMALL).generator()
        ahead = _stream(seed=17, particle=particle, layer=Layer.SMALL).generator()
        want = []
        for k in range(grid_times.size - 1):
            t, z = _draw_poisson_events(by_step, float(grid_times[k]), float(grid_times[k + 1]), band, True)
            if t.size:
                want.append((k, t, z))
        got = _draw_step_events(ahead, grid_times, band)
        assert [k for k, _, _ in got] == [k for k, _, _ in want]
        for (_, ta, za), (_, tb, zb) in zip(got, want):
            assert np.array_equal(ta, tb) and np.array_equal(za, zb)
        # the generator ends where the step-by-step draws leave it
        assert ahead.random() == by_step.random()


def test_same_stream_reproduces_identical_event_sequences():
    model = make_levy(big_rate=3.0)
    a = sample_big_jumps(_stream(seed=16), 1.0, model)
    b = sample_big_jumps(_stream(seed=16), 1.0, model)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.time == eb.time and np.array_equal(ea.mark, eb.mark)


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
