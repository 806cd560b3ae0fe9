"""Built-in coefficient families: formulas, guards, registries."""

import numpy as np
import pytest

from levyfield.coefficients import (
    FAMILIES,
    CoefficientSet,
    build_cubic_interaction,
    build_frozen,
    build_linear_meanfield,
    register_family,
    u_band_abs2_moment,
)
from levyfield.errors import ConfigurationError
from levyfield.measures import EmpiricalMeasure
from levyfield.noise import nu_expectation

from levyfield_testkit import make_levy, small_only_levy


def _cloud(rng, n=32, d=2):
    return EmpiricalMeasure(rng.standard_normal((n, d)))


def test_cubic_fast_path_matches_generic_kernel_route():
    levy = make_levy(dim=2)
    fast = build_cubic_interaction(levy, dim=2, beta=2.0)
    slow = build_cubic_interaction(levy, dim=2, beta=2.0, kernel=lambda v: v, kernel_lip=1.0)
    rng = np.random.default_rng(20)
    for _ in range(20):
        mu = _cloud(rng)
        X = rng.standard_normal((8, 2))
        assert np.allclose(
            fast.drift(X, fast.prepare(mu)), slow.drift(X, slow.prepare(mu)), atol=1e-10
        )


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cubic_drift_of_a_row_does_not_depend_on_its_batch(d):
    levy = make_levy(dim=d)
    coeffs = build_cubic_interaction(levy, dim=d, beta=2.0)
    rng = np.random.default_rng(21)
    ctx = coeffs.prepare(_cloud(rng, n=64, d=d))
    for n in (1, 2, 3, 5, 8, 17, 64, 1000):
        X = 0.3 * rng.standard_normal((n, d))  # small states, so the interaction term shows in the drift
        whole = coeffs.drift(X, ctx)
        assert all(np.array_equal(whole[j], coeffs.drift(X[j:j + 1], ctx)[0]) for j in range(n))
        if d == 1:
            # in one dimension the row sum equals the matrix-vector product, so no 1D run moves
            t2 = (X * X).sum(axis=1) - 2.0 * (X @ ctx.mean) + ctx.abs2
            gemv = X - X * (X * X).sum(axis=1)[:, None] + np.sqrt(np.maximum(t2, 0.0))[:, None]
            assert np.array_equal(whole, gemv)


def test_cubic_damping_guard():
    levy = make_levy()
    with pytest.raises(ConfigurationError):
        build_cubic_interaction(levy, dim=1, beta=2.0, c2=1e-9, c3=1.0, c4=1.0)
    with pytest.raises(ConfigurationError):
        build_cubic_interaction(levy, dim=1, beta=2.0, c1=0.0)


def test_cubic_compensator_matches_monte_carlo_nu_integral():
    levy = make_levy(dim=1, small_rate=2.0)
    coeffs = build_cubic_interaction(levy, dim=1, beta=2.0)
    rng = np.random.default_rng(21)
    mu = _cloud(rng, d=1)
    ctx = coeffs.prepare(mu)
    X = rng.standard_normal((4, 1))
    closed = coeffs.small_compensator(X, ctx, levy)
    for i, x in enumerate(X):
        est = nu_expectation(
            levy,
            "U",
            lambda z: coeffs.small_jump(np.broadcast_to(x, (z.shape[0], 1)), z, ctx)[:, 0],
            samples=400_000,
        )
        assert abs(closed[i, 0] - est.value) < 4 * est.se + 1e-4


def test_linear_compensator_matches_monte_carlo_nu_integral():
    levy = small_only_levy(dim=2, rate=1.5)
    coeffs = build_linear_meanfield(levy, dim=2, beta=2.0, gamma_f=0.7)
    rng = np.random.default_rng(22)
    ctx = coeffs.prepare(_cloud(rng))
    X = rng.standard_normal((3, 2))
    closed = coeffs.small_compensator(X, ctx, levy)
    for k in range(2):
        est = nu_expectation(
            levy,
            "U",
            lambda z: coeffs.small_jump(X[:1].repeat(z.shape[0], axis=0), z, ctx)[:, k],
            samples=400_000,
        )
        assert abs(closed[0, k] - est.value) < 4 * est.se + 1e-4


def test_linear_drift_formula():
    levy = small_only_levy()
    coeffs = build_linear_meanfield(levy, dim=1, beta=2.0, a=2.0, c=0.5)
    mu = EmpiricalMeasure(np.array([[1.0], [3.0]]))  # mean 2
    ctx = coeffs.prepare(mu)
    X = np.array([[4.0]])
    assert np.allclose(coeffs.drift(X, ctx), -2.0 * 4.0 + 0.5 * 2.0)


def test_frozen_family_ignores_the_measure():
    levy = make_levy()
    coeffs = build_frozen(levy, dim=1, beta=2.0, a=1.0, gamma_f=0.3, gamma_g=0.2)
    rng = np.random.default_rng(23)
    X = rng.standard_normal((5, 1))
    d1 = coeffs.drift(X, coeffs.prepare(_cloud(rng, d=1)))
    d2 = coeffs.drift(X, coeffs.prepare(_cloud(rng, d=1)))
    assert np.array_equal(d1, d2)
    assert coeffs.measure_free_small


def test_declared_constants_are_finite_and_positive():
    levy = make_levy()
    for coeffs in (
        build_cubic_interaction(levy, dim=1, beta=2.0),
        build_linear_meanfield(small_only_levy(), dim=1, beta=2.0, gamma_f=0.5),
    ):
        assert coeffs.declared_one_sided is not None and coeffs.declared_one_sided > 0
        assert coeffs.declared_coercivity is not None and coeffs.declared_coercivity > 0


def test_u_band_abs2_moment_uses_closed_form():
    # 1d annulus [0.1, 1]: E z^2 = (1 - 0.1^3) / (3 * 0.9) = 0.37
    levy = small_only_levy(rate=2.0)
    assert abs(u_band_abs2_moment(levy) - 2.0 * (1.0 - 1e-3) / 2.7) < 1e-12
    assert u_band_abs2_moment(make_levy(small_rate=0.0)) == 0.0


def test_coefficient_set_validation():
    with pytest.raises(ConfigurationError):
        build_cubic_interaction(make_levy(), dim=0, beta=2.0)
    with pytest.raises(ConfigurationError):
        build_linear_meanfield(small_only_levy(), dim=1, beta=2.5)


@pytest.mark.parametrize("band, compensator", [("small_jump", "small_compensator"),
                                                ("common_small", "common_small_compensator")])
def test_a_compensated_band_needs_its_closed_form_compensator(band, compensator):
    # the engine subtracts the closed-form compensator; there is no sampled fallback
    jump = {band: lambda X, Z, ctx=None: Z}
    with pytest.raises(ConfigurationError, match=compensator):
        CoefficientSet(name="open", dim=1, beta=2.0, drift=lambda X, ctx: -X, **jump)
    CoefficientSet(name="closed", dim=1, beta=2.0, drift=lambda X, ctx: -X,
                   **jump, **{compensator: lambda X, ctx, levy: np.zeros_like(X)})


def test_family_registry_round_trip():
    assert set(FAMILIES) >= {"cubic_interaction", "linear_meanfield", "frozen"}
    register_family("frozen_alias", FAMILIES["frozen"])
    try:
        assert FAMILIES["frozen_alias"] is FAMILIES["frozen"]
    finally:
        del FAMILIES["frozen_alias"]
