"""Error classes shared across the package, and the floating-point
boundary that turns arithmetic faults into errors.

The CLI maps these onto stable exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import numpy as np


class ConfigError(ValueError):
    """Bad configuration: unknown key, invalid value, missing path."""


class DataError(ValueError):
    """Malformed or inconsistent input data or file format."""


class NumericalError(ArithmeticError):
    """Non-finite value where a finite one is required."""


def raise_float_errors():
    """numpy error state under which overflow, an invalid operation
    (such as inf - inf) or a division by zero raises FloatingPointError
    where it happens, instead of warning and passing inf or NaN on to be
    washed out by later layers.  Underflow stays ignored."""
    return np.errstate(over="raise", invalid="raise", divide="raise")
