import pytest

from tilebench.compiler import build_fixed_point


@pytest.fixture(scope="session")
def fp():
    """The N=256 fixed-point set, built once for every test that reads it
    (no test changes it; spies wrap it with ``dataclasses.replace``)."""
    return build_fixed_point(256)
