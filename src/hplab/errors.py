"""Exception types and parameter checks shared across the package."""

import cmath


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy or convergence contract."""


class ConfigError(ValueError):
    """An experiment configuration is invalid.

    ``code`` is a short machine-readable tag; ``field`` names the offending
    entry when there is one.
    """

    def __init__(self, code, message, field=None):
        self.code = code
        self.field = field
        super().__init__(message)


def check_params(m: int | None, delta) -> complex:
    """``delta`` as a complex number, once (m, delta) is admissible.

    Raises :class:`ConfigError` unless m >= 1 and delta is finite with
    Re delta > -1/2; ``m`` is None where only delta is given.  This is the
    one statement of the paper's parameter range, for the library and the
    command line alike.
    """
    if m is not None and m < 1:
        raise ConfigError("bad-value", f"m must be >= 1, got {m}", field="m")
    delta = complex(delta)
    if not (delta.real > -0.5 and cmath.isfinite(delta)):
        raise ConfigError("delta-range", f"delta must be finite with Re delta > -1/2, got {delta}",
                          field="delta")
    return delta
