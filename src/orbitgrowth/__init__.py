"""Periodic points, orbit counts and dynamical Mertens sums of S-integer
circle-doubling systems, exactly where possible and asymptotically otherwise.
"""

from .integers import (
    OrderTable,
    cyclotomic_eval2,
    euler_phi,
    moebius,
    mult_order,
    ord_p,
    ord_p_mersenne,
)
from .mersenne import (
    FactorCache,
    MersenneFactorization,
    factor_mersenne,
    primitive_primes,
)

__version__ = "0.1.0"

__all__ = [
    "OrderTable",
    "cyclotomic_eval2",
    "euler_phi",
    "moebius",
    "mult_order",
    "ord_p",
    "ord_p_mersenne",
    "FactorCache",
    "MersenneFactorization",
    "factor_mersenne",
    "primitive_primes",
]
