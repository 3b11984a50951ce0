from fractions import Fraction

import pytest

from zkwander import (DegreePattern, attach_register, compute_C, dirichlet,
                      recover, reduce_system, verify)
from zkwander import recovery
from zkwander.reduction import _reduce


@pytest.fixture(autouse=True)
def cold_reduction():
    """Each test starts with reduce_system's memo and recovery's
    register-free block empty, so a test that counts weights,
    determinants, solves or blocks sees them all built."""
    _reduce.cache_clear()
    recovery._free[0] = None, None


# The headline configuration: alpha = -16, k = 6, consecutive degrees,
# free point d = (1, 1, 4, 6), Z_3 = -2e13.


@pytest.fixture(scope="session")
def seq16():
    return dirichlet(-16)


@pytest.fixture(scope="session")
def pattern6():
    return DegreePattern.default(6)


@pytest.fixture(scope="session")
def rs16(seq16, pattern6):
    return reduce_system(seq16, pattern6)


@pytest.fixture(scope="session")
def c16(rs16):
    return compute_C(rs16, (1, 4, 6))


@pytest.fixture(scope="session")
def z3_main():
    return Fraction(-2) * 10 ** 13


@pytest.fixture(scope="session")
def params16(rs16, z3_main):
    return recover(rs16, (1, 4, 6), z3=z3_main)


@pytest.fixture(scope="session")
def registered16(params16):
    return attach_register(params16, 1, 1)


@pytest.fixture(scope="session")
def cert16(registered16, seq16):
    return verify(registered16.pair, seq16)
