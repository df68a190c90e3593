"""Reduction operators for ``reduce``/``allreduce``/``scan``.

Each operator works both on scalars / Python objects (via the ``fn``
callable) and elementwise on numpy arrays (via ``ufunc`` when available).
Operators must be associative; the tree algorithms preserve rank order, so
non-commutative user-defined operators are safe too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class ReduceOp:
    """An associative reduction operator."""

    name: str
    fn: Callable[[Any, Any], Any]
    ufunc: Any = None  # numpy ufunc fast path, if one exists

    def __call__(self, a: Any, b: Any) -> Any:
        """Combine two values, preferring the numpy fast path for arrays."""
        if self.ufunc is not None and isinstance(a, np.ndarray):
            return self.ufunc(a, b)
        return self.fn(a, b)


SUM = ReduceOp("SUM", lambda a, b: a + b, ufunc=np.add)
MAX = ReduceOp("MAX", lambda a, b: a if a >= b else b, ufunc=np.maximum)
