"""Exact matrix-product engine for Macdonald polynomials over Q(q, t).

The package computes the inhomogeneous basis f_lambda as traces of
t-deformed boson operators, raises it to non-symmetric Macdonald
polynomials E_lambda, symmetrizes to P_lambda, and verifies the exchange
relations behind the construction on truncated Fock spaces.  Everything
is exact: coefficients live in the fraction field of Z[q, t].
"""

import sys

from .hecke import compute_E, eigen_check, raise_E, triangular_expand, verify_qkz
from .lattice import verify_intertwining
from .matprod import (compute_f, compute_P, expand_configurations, omega_norm,
                      raw_trace_sum, transition, verify_generating,
                      verify_recursion)
from .oracles import (asep_stationary, eigen_solve_E, hall_littlewood,
                      numeric_trace, schur)
from .oscillator import trace_closed_form
from .qtfield import QTRat, specialize
from .xpoly import XPoly

__version__ = "0.1.0"


def clear_caches():
    """Empty every lru_cache of the package's loaded modules: the traces
    and f memos of matprod, the operator and factor tables and the CLI
    parser, so that the next computation starts cold (hecke memoises no
    E).  A module not yet imported has no cache to empty."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


__all__ = [
    "QTRat", "XPoly", "specialize", "clear_caches",
    "compute_f", "compute_E", "compute_P",
    "raw_trace_sum", "omega_norm", "expand_configurations",
    "transition", "verify_recursion", "verify_generating",
    "raise_E", "triangular_expand", "eigen_check", "verify_qkz",
    "verify_intertwining", "trace_closed_form",
    "schur", "hall_littlewood", "eigen_solve_E", "asep_stationary",
    "numeric_trace",
    "__version__",
]
