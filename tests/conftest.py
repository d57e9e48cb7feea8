"""Shared fixtures.

The canonical disk-family instance (delta = 1/200, eps_i = 2^-7-i, n = 8,
quadrature order 32, with its order-doubling verification pass) takes
about a second to assemble; it is built once per session and shared by
the unit and acceptance tests.
"""

import pytest

from dirichletlab import geometry, gram, seqs

DELTA = 1.0 / 200.0


@pytest.fixture(scope="session")
def eps8():
    return seqs.dyadic(8)


@pytest.fixture(scope="session")
def profile8(eps8):
    return geometry.profile_make(eps8, DELTA)


@pytest.fixture(scope="session")
def family8(eps8):
    return geometry.disk_family(eps8, DELTA, 8)


@pytest.fixture(scope="session")
def gram8(family8):
    return gram.build_gram(family8, m=32)


@pytest.fixture(scope="session")
def domain24():
    return geometry.eksy_build(lambda n: n.bit_length(), 24)
