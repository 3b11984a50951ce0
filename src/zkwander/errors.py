"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
generic ValueError is reserved for plain misuse (wrong length, bad literal).
"""

from __future__ import annotations


class ZkwanderError(Exception):
    """Base class for package errors."""


class ModeUnsupportedError(ZkwanderError):
    """An operation was requested in a scalar regime that cannot express it.

    Typical cases: exact rationals for a non-integer exponent, complex data
    (every regime is real), or a float weight underflowing to zero.
    """


class InvalidPatternError(ZkwanderError):
    """Degree pattern violates the residue or ordering constraints."""


class SingularSystemError(ZkwanderError):
    """The 3x3 weight matrix is singular, so the reduction does not exist.

    This is expected for the Hardy (alpha = 0) and classical Dirichlet
    (alpha = 1) weights, where t -> omega_t is affine in t.
    """


class DegenerateReductionError(ZkwanderError):
    """A reduced quantity that must be nonzero (C_1, C_2, C_4, C_5) vanished."""


class DegenerateZ3Error(ZkwanderError):
    """The chosen Z_3 makes C_1*Z_3 - C_3/2 vanish, so B_0 is undefined."""


class DegeneratePairError(ZkwanderError):
    """Generator pair is degenerate (Cauchy-Schwarz equality, zero norms...)."""


class RegisterTooLargeError(ZkwanderError):
    """Register coefficients destroy the strict contraction inequality.

    ``max_register`` carries the estimate of the largest admissible common
    magnitude |a4| = |b5|, a Fraction of 20 significant digits (0 when no
    register fits).
    """

    def __init__(self, message: str, max_register):
        super().__init__(message)
        self.max_register = max_register


class NoAdmissibleSystemError(ZkwanderError):
    """A search cannot evaluate its system, the message naming why (the CLI
    exits 1), or no Z_3 rescues a point, ``choose_Z3`` in ``recover`` (an
    honest negative: ``pipeline`` exits 2); a search landing on B_1 >= 1,
    or on a point it cannot certify, raises nothing."""


class CertificateError(ZkwanderError):
    """A certificate file is malformed or fails its own re-check."""
