"""Shared fixtures: kernels are cheap, the majorant build is not."""

import pytest

from paircorr import stats
from paircorr.beurling import build_beurling_selberg
from paircorr.kernels import default_f, default_h


@pytest.fixture(autouse=True)
def _no_power_table():
    # every test starts without the point sets' cached power table
    stats._table = None


@pytest.fixture(scope="session")
def bs():
    # one build for the whole run; construction already self-verifies
    return build_beurling_selberg()


@pytest.fixture()
def f():
    return default_f()


@pytest.fixture()
def h():
    return default_h()
