"""Closed forms and basis readers that only the tests use."""

import math

import numpy as np

from hplab.errors import NumericalError, check_params
from hplab.orthopoly import PolynomialBasis


def radial_monomial_integral(p: int, m: int) -> float:
    """``int_D |z|^(2p) (1-|z|^2)^(m-1) dA = pi * p! (m-1)! / (p+m)!``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    check_params(m, 0)
    return math.pi * math.exp(math.lgamma(p + 1) + math.lgamma(m) - math.lgamma(p + m + 1))


def leading_coefficients(basis: PolynomialBasis) -> np.ndarray:
    """Real positive leading coefficients of P_0, ..., P_{n-1}."""
    lead = np.real(np.diag(basis.coeffs))
    if not np.all(lead > 0):
        raise NumericalError("leading coefficients must be positive")
    return lead.copy()
