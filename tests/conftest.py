"""Shared fixtures for the test suite; plain helpers live in ``levyfield_testkit``."""

import pytest

from levyfield.coefficients import build_cubic_interaction, build_linear_meanfield
from levyfield.solver import TimeGrid
from levyfield.streams import EXP_MAIN, StreamContext

from levyfield_testkit import make_levy, small_only_levy


@pytest.fixture
def cubic_coeffs():
    levy = make_levy()
    return build_cubic_interaction(levy, dim=1, beta=2.0), levy


@pytest.fixture
def linear_coeffs():
    levy = small_only_levy(rate=0.5)
    return build_linear_meanfield(levy, dim=1, beta=2.0, a=1.0, c=0.5, gamma_f=0.2), levy


@pytest.fixture
def grid():
    return TimeGrid.regular(1.0, 0.05)


@pytest.fixture
def ctx():
    return StreamContext(seed=7, experiment=EXP_MAIN, replica=0)
