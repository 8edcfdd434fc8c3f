"""The package's public surface: what it exports, and how it meets bad input."""

import importlib
import pkgutil

import numpy as np
import pytest

import hplab
from hplab.dpp import gauge_identity_check
from hplab.errors import NumericalError, check_params
from hplab.orthopoly import (
    PolynomialBasis,
    finite_kernel,
    kernel_eval,
    leading_coefficients,
    limiting_kernel,
    orthonormal_basis,
)
from hplab.sampling import hp_log_weights
from hplab.weights import WeightSpec, weight_eval

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(hplab.__path__))


@pytest.mark.parametrize("module", ["hplab"] + [f"hplab.{name}" for name in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


NAN = complex(np.nan, 0.0)
NAN_CASES = {
    "check_params": (lambda: check_params(1, NAN), ValueError),
    "weight_eval": (lambda: weight_eval(WeightSpec("hp", 1, 1.0), [NAN]), ValueError),
    "kernel_eval finite": (
        lambda: kernel_eval(finite_kernel(orthonormal_basis(2, 1, 1.0)), [NAN], [0.1]),
        ValueError,
    ),
    "kernel_eval limit": (lambda: kernel_eval(limiting_kernel(1, 1.0), [0.1], [NAN]), ValueError),
    "gauge_identity_check": (lambda: gauge_identity_check([0.1, NAN], 1, 1.0), ValueError),
    "hp_log_weights": (lambda: hp_log_weights(np.full((1, 2, 2), np.nan), 1.0), ValueError),
    "leading_coefficients": (
        lambda: leading_coefficients(PolynomialBasis(2, 1, 1.0, np.diag([1.0, np.nan]))),
        NumericalError,
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_input_fails_the_check(case):
    call, error = NAN_CASES[case]
    with pytest.raises(error):
        call()
