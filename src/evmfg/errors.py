"""Shared exception types, and the integer and number rules that every count and real parameter obeys."""

from __future__ import annotations

import math
import numbers


class DivergenceError(RuntimeError):
    """A sweep read a non-finite price, produced NaN/Inf or a negative density, or would exceed its substep budget.

    Carries the time node index at which the fault was detected so the
    caller can report where the explicit scheme lost stability.
    """

    def __init__(self, message: str, time_node: int):
        super().__init__(f"{message} (time node {time_node})")
        self.time_node = time_node


class ScenarioError(ValueError):
    """An input broke a rule, checked once by the object that relies on it.

    ``field`` is the scenario path of the offending entry, e.g. ``series.H``
    or ``initial_density.center``, also when a grid, the solver options or
    the model parameters check it; a run file is named by its file name.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def as_int(value, field: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool or a float (``ScenarioError`` on ``field``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(field, f"expected an integer, got {value!r}")
    return int(value)


def as_float(value, field: str) -> float:
    """``value`` as a finite float: a Python or numpy real number, never a bool (``ScenarioError`` on ``field``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ScenarioError(field, "must be finite")
    return out
