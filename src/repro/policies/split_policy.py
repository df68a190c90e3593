"""Split policies: route entries to one of several outputs by a predicate.

The hybrid-cut workflow (Figure 10) writes::

    <param name="policy" type="SplitPolicy" value="{>=, $threshold},{<, $threshold}"/>

i.e. output 0 receives entries whose key is ``>= threshold`` (high-degree)
and output 1 those ``< threshold`` (low-degree).  The grammar is a
comma-separated list of ``{op, operand}`` conditions, one per output path.
"""

from __future__ import annotations

import operator
import re
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import PolicyError, Record

if TYPE_CHECKING:  # pragma: no cover - route() imports numpy where it runs
    import numpy as np

_OPS: dict[str, Callable[[Any, Any], Any]] = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}

_COND_RE = re.compile(r"\{\s*(>=|<=|==|!=|>|<)\s*,\s*([^{}]+?)\s*\}")


class SplitCondition(Record):
    """One ``{op, operand}`` clause (immutable)."""

    op: str
    operand: float

    def __init__(self, op: str, operand: float) -> None:
        if op not in _OPS:
            raise PolicyError(f"unknown split comparison {op!r}")
        vars(self).update(op=op, operand=operand)

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Vectorized predicate over the key column."""
        return _OPS[self.op](values, self.operand)

    def matches_scalar(self, value: Any) -> bool:
        """Scalar predicate (used by the static analyzer's coverage probe)."""
        return bool(_OPS[self.op](value, self.operand))


class SplitPolicy:
    """An ordered list of conditions, one per output; first match wins."""

    def __init__(self, conditions: Sequence[SplitCondition]) -> None:
        if not conditions:
            raise PolicyError("split policy needs at least one condition")
        self.conditions = list(conditions)

    @property
    def num_outputs(self) -> int:
        return len(self.conditions)

    @classmethod
    def parse(cls, text: str) -> "SplitPolicy":
        """Parse the configuration grammar ``{op, operand},{op, operand},...``."""
        matches = _COND_RE.findall(text)
        if not matches:
            raise PolicyError(f"cannot parse split policy {text!r}")
        conditions = []
        for op, operand in matches:
            try:
                value = float(operand)
            except ValueError as exc:
                raise PolicyError(
                    f"split operand {operand!r} is not numeric (unresolved $variable?)"
                ) from exc
            conditions.append(SplitCondition(op, value))
        return cls(conditions)

    def route(self, values: np.ndarray) -> np.ndarray:
        """Output index per entry; raises if an entry matches no condition."""
        import numpy as np

        values = np.asarray(values)
        out = np.full(len(values), -1, dtype=np.int64)
        for i, cond in enumerate(self.conditions):
            mask = (out == -1) & cond.matches(values)
            out[mask] = i
        if np.any(out == -1):
            bad = values[out == -1][:5]
            raise PolicyError(
                f"{int((out == -1).sum())} entries match no split condition "
                f"(e.g. key values {bad.tolist()})"
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        clauses = ",".join(f"{{{c.op}, {c.operand:g}}}" for c in self.conditions)
        return f"SplitPolicy({clauses})"
