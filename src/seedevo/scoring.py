"""Score comparison under a metric direction.

A leaf module: the engine, the executors and anything else that ranks
scores import from here, so none of them has to import another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EvaluationError


@dataclass(frozen=True)
class MetricDirection:
    """Which way the evaluation metric improves."""

    higher_is_better: bool = True


def _check_finite(value: float, what: str) -> None:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise EvaluationError(f"{what} must be finite, got {value!r}")


def better(a: float, b: float, direction: MetricDirection) -> bool:
    """True when score a strictly beats score b. Ties are not better."""
    _check_finite(a, "score a")
    _check_finite(b, "score b")
    return a > b if direction.higher_is_better else a < b


def improvement(child: float, parent: float, direction: MetricDirection) -> float:
    """Signed gain of child over parent; positive always means better."""
    _check_finite(child, "child score")
    _check_finite(parent, "parent score")
    return child - parent if direction.higher_is_better else parent - child
