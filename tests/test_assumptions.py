"""Sampling falsifiers for the structural conditions.

The checkers cannot prove an inequality; they hunt for counterexamples
over randomized tuples.  These tests pin both directions: a family whose
declared constant is honest passes, and a corrupted declaration (or an
outright violating drift) is caught with a concrete witness.
"""

import numpy as np
import pytest

from levyfield.assumptions import check_coercivity, check_one_sided_lipschitz
from levyfield.coefficients import CoefficientSet, build_cubic_interaction, build_linear_meanfield
from levyfield.errors import ConfigurationError

from levyfield_testkit import make_levy, small_only_levy


TRIALS = 4000  # enough to find violations; the acceptance run uses 10^4


def test_cubic_passes_at_declared_constants():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    one = check_one_sided_lipschitz(coeffs, levy, coeffs.declared_one_sided, trials=TRIALS, seed=1)
    coe = check_coercivity(coeffs, levy, coeffs.declared_coercivity, trials=TRIALS, seed=1)
    assert one.passed and coe.passed
    assert one.worst_ratio <= coeffs.declared_one_sided
    assert coe.worst_ratio <= coeffs.declared_coercivity


def test_linear_passes_at_declared_constants():
    levy = small_only_levy(rate=0.5)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2)
    one = check_one_sided_lipschitz(coeffs, levy, coeffs.declared_one_sided, trials=TRIALS, seed=2)
    coe = check_coercivity(coeffs, levy, coeffs.declared_coercivity, trials=TRIALS, seed=2)
    assert one.passed and coe.passed


def test_understated_constant_fails_with_witness():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    honest = check_one_sided_lipschitz(coeffs, levy, coeffs.declared_one_sided, trials=TRIALS, seed=3)
    lowball = check_one_sided_lipschitz(coeffs, levy, honest.worst_ratio * 0.5, trials=TRIALS, seed=3)
    assert not lowball.passed
    assert lowball.witness  # the offending tuple is reported


def test_anti_coercive_drift_is_caught():
    levy = small_only_levy(rate=0.0)

    def bad_drift(X, ctx):
        return X * (X * X).sum(axis=1)[:, None]  # +x|x|^2, blows up

    coeffs = CoefficientSet(name="bad", dim=1, beta=2.0, drift=bad_drift)
    rep = check_coercivity(coeffs, levy, 10.0, trials=TRIALS, seed=4)
    assert not rep.passed
    assert rep.worst_ratio > 10.0


def test_reports_are_deterministic_in_seed_and_trials():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    a = check_one_sided_lipschitz(coeffs, levy, coeffs.declared_one_sided, trials=500, seed=5)
    b = check_one_sided_lipschitz(coeffs, levy, coeffs.declared_one_sided, trials=500, seed=5)
    assert a.worst_ratio == b.worst_ratio
    assert a.witness["trial"] == b.witness["trial"]
    assert np.array_equal(a.witness["x"], b.witness["x"])
    assert np.array_equal(a.witness["mu1"].points, b.witness["mu1"].points)


def test_chaos_variant_needs_p_below_beta_and_measure_free_f():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    rep = check_one_sided_lipschitz(
        coeffs, levy, coeffs.declared_one_sided, variant="A1p", p=1.0, trials=500, seed=6
    )
    assert "[A1p]" in rep.assumption
    with pytest.raises(ConfigurationError):
        check_one_sided_lipschitz(coeffs, levy, 1.0, variant="A1p", p=2.5, trials=10, seed=0)
    measure_in_f = build_cubic_interaction(levy, dim=1, beta=2.0, measure_in_f=True)
    with pytest.raises(ConfigurationError):
        check_one_sided_lipschitz(measure_in_f, levy, 1.0, variant="A1p", p=1.0, trials=10, seed=0)


def test_mixed_coercivity_variant_requires_common_model():
    levy = small_only_levy(rate=0.5)
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, gamma_f=0.2, gamma_f0=0.3)
    with pytest.raises(ConfigurationError):
        check_coercivity(coeffs, levy, 5.0, variant="B2", trials=10, seed=0)
    rep = check_coercivity(
        coeffs, levy, coeffs.declared_coercivity + 1.0, variant="B2",
        levy_common=small_only_levy(rate=0.5), trials=500, seed=7,
    )
    assert "[B2]" in rep.assumption


def test_separated_variant_is_stricter_or_equal():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    joint = check_coercivity(coeffs, levy, coeffs.declared_coercivity, variant="A2", trials=1000, seed=8)
    split = check_coercivity(coeffs, levy, coeffs.declared_coercivity, variant="A21", trials=1000, seed=8)
    assert split.worst_ratio >= joint.worst_ratio - 1e-12


def test_unknown_variant_rejected():
    levy = make_levy()
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    with pytest.raises(ConfigurationError):
        check_one_sided_lipschitz(coeffs, levy, 1.0, variant="A9", trials=10, seed=0)
    with pytest.raises(ConfigurationError):
        check_coercivity(coeffs, levy, 1.0, variant="B9", trials=10, seed=0)
