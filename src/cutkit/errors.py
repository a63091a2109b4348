"""Exception hierarchy shared across the toolkit."""

import numpy as np


class CutkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(CutkitError, ValueError):
    """Malformed or out-of-contract input (bad ids, weights, formats, flags)."""


class ContractViolation(CutkitError, RuntimeError):
    """An internal invariant that should hold by construction was violated."""


class DecompositionError(CutkitError, RuntimeError):
    """Expander decomposition could not produce a valid certified partition."""


def as_int(name: str, value) -> int:
    """value as a Python int; a NumPy integer counts, a bool or anything else raises InputError."""
    if type(value) is int:  # the common case, checked first: graphs call this per edge entry
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an int, got {value!r}")
    return int(value)
