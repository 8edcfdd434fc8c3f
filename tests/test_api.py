"""The package's public surface: what it exports, and how it meets bad input."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hplab
from hplab.dpp import gauge_identity_check
from hplab.errors import check_params
from hplab.orthopoly import finite_kernel, kernel_eval, limiting_kernel, orthonormal_basis
from hplab.sampling import hp_log_weights
from hplab.weights import WeightSpec, weight_eval

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(hplab.__path__))


@pytest.mark.parametrize("module", ["hplab"] + [f"hplab.{name}" for name in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


ROOT = Path(__file__).resolve().parents[1]
# exported for callers although no package module or bench job uses it
DOCUMENTED_ORACLES = {"moment_quadrature"}


def _names(tree, strings):
    """Names loaded in ``tree``, as variables or attributes, and its string
    constants too if ``strings``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_exported_name_is_used_outside_the_tests():
    # a public name that only tests call is test code inside the package
    used = set()
    for path in sorted((ROOT / "src" / "hplab").glob("*.py")):
        if path.name != "__init__.py":
            used |= _names(ast.parse(path.read_text()), strings=False)
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= _names(ast.parse(path.read_text()), strings=True)
    unused = sorted(set(hplab.__all__) - used - DOCUMENTED_ORACLES)
    assert not unused, unused


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
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_input_fails_the_check(case):
    call, error = NAN_CASES[case]
    with pytest.raises(error):
        call()
