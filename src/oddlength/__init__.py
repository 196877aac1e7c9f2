"""Exact odd-length computations on finite Weyl groups.

Root systems with heights, group enumeration, window statistics for the
classical types, sparse integer polynomials, signed generating functions
and the bundled identity checks, plus a partitioned engine that reaches
E8.  The package exports the names below; everything else lives in its
submodule (cartan, weyl, stats, poly, gf, engine, errors, cli).
"""

from .cartan import CartanType, root_system
from .engine import run_partitioned
from .errors import OddLengthError
from .gf import predicted_gf, signed_gf
from .poly import Poly
from .stats import SignedPermutation, StatisticId, compute_statistic

__version__ = "0.1.0"

__all__ = [
    "CartanType",
    "root_system",
    "run_partitioned",
    "OddLengthError",
    "predicted_gf",
    "signed_gf",
    "Poly",
    "SignedPermutation",
    "StatisticId",
    "compute_statistic",
    "__version__",
]
