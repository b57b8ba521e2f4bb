"""Periodic points, orbit counts and dynamical Mertens sums of S-integer
circle-doubling systems, exactly where possible and asymptotically otherwise.
"""

__version__ = "0.1.0"
