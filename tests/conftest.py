import pytest
from hypothesis import HealthCheck, settings

from bstar import build, cross_polytope, named

# oracles.check_frozen_record asserts, and must also check under python -O
pytest.register_assert_rewrite("oracles")

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("default")


@pytest.fixture
def octahedron():
    return cross_polytope(3)[0]


@pytest.fixture
def octahedron_colored():
    return cross_polytope(3)


@pytest.fixture
def triangle_boundary():
    return build([(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def rp2():
    return named("rp2_min")
