"""Counterexamples to the wandering property for z^k-invariant subspaces
in weighted Hardy-type coefficient spaces, with exact certificates.
"""

from .certify import Certificate, check_certificate, save_certificate, verify
from .errors import (CertificateError, DegeneratePairError,
                     DegenerateReductionError, DegenerateZ3Error,
                     InvalidPatternError, ModeUnsupportedError,
                     NoAdmissibleSystemError, RegisterTooLargeError,
                     SingularSystemError, ZkwanderError)
from .model import AQuantities, DegreePattern, GeneratorPair
from .recovery import (RecoveredParameters, attach_register, auto_register,
                       choose_A15, choose_Z3, cross_check,
                       max_register_estimate, recover)
from .reduction import (CQuantities, ReducedSystem, b0_minimum, compute_C,
                        objective_B0, objective_B1, objective_B2,
                        reduce_system, split_e, z1_star)
from .scalars import INTERVAL, RATIONAL, Interval, Radical
from .search import SearchConfig, SearchResult, minimize
from .weights import WeightSequence, dirichlet, perturbed, weight

__version__ = "0.1.0"

__all__ = [
    "AQuantities", "Certificate", "CertificateError", "CQuantities",
    "DegeneratePairError", "DegenerateReductionError", "DegenerateZ3Error",
    "DegreePattern", "GeneratorPair", "INTERVAL", "Interval",
    "InvalidPatternError", "ModeUnsupportedError", "NoAdmissibleSystemError",
    "RATIONAL", "Radical", "RecoveredParameters", "ReducedSystem",
    "RegisterTooLargeError", "SearchConfig", "SearchResult",
    "SingularSystemError", "WeightSequence", "ZkwanderError",
    "attach_register", "auto_register", "b0_minimum", "check_certificate",
    "choose_A15", "choose_Z3", "compute_C", "cross_check",
    "dirichlet", "max_register_estimate", "minimize", "objective_B0",
    "objective_B1", "objective_B2", "perturbed", "recover", "reduce_system",
    "save_certificate", "split_e", "verify", "weight", "z1_star",
]
