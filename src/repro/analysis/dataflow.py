"""Generic fixed-point dataflow analysis over the plan-IR.

One worklist engine (:func:`run_dataflow`) runs any
:class:`DataflowAnalysis` — forward or backward — over a
:class:`~repro.analysis.ir.PlanIR` until the per-node values stop
changing.  Three concrete analyses ship with it:

* :class:`SchemaAnalysis` — forward record-schema propagation on a flat
  lattice (⊤ unknown / concrete field list / ⊥ conflict): group add-ons
  append typed attributes, joins of disagreeing schemas detect conflicts;
* :class:`LivenessAnalysis` — backward column liveness seeded from the
  fields downstream operators actually reference (sort/group/split keys
  and add-on value fields), the basis of the PAP083 pruning advisory;
* :class:`CardinalityAnalysis` — forward entry/row-count estimation, the
  substrate of the per-exchange bytes-moved model in
  :mod:`repro.analysis.cost`.

The IR is a DAG in document order, so each pass converges after at most
``len(nodes)`` sweeps; the engine still iterates to a fixed point rather
than trusting topology, because the tolerant model may describe wiring
the derived spec would reject (a model with structural errors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Generic, Optional, TypeVar

from repro.analysis.ir import IRNode, PlanIR

V = TypeVar("V")


class DataflowAnalysis(Generic[V]):
    """One analysis: a lattice (``top``/``join``) plus a transfer function.

    ``direction`` is ``"forward"`` (values flow source -> sink along IR
    edges) or ``"backward"`` (sink -> source).  ``boundary`` seeds the
    graph's entry (forward: the workflow input; backward: the final node's
    out-value).  ``transfer`` maps a node's in-value to its out-value.
    """

    direction: str = "forward"

    def top(self) -> V:
        """The "no information yet" lattice value."""
        raise NotImplementedError

    def boundary(self, ir: PlanIR) -> V:
        """The value entering the graph at its boundary."""
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        """Combine values meeting at a node (must be monotone)."""
        raise NotImplementedError

    def transfer(self, node: IRNode, value: V) -> V:
        """The node's effect on a value flowing through it."""
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[V]):
    """Per-node fixed-point values of one analysis run."""

    #: value at the node's input (forward) / live-out side (backward)
    input_of: dict[str, V]
    #: value after the node's transfer function
    output_of: dict[str, V]
    #: sweeps until the fixed point (diagnostic/curiosity)
    iterations: int = 0


def run_dataflow(ir: PlanIR, analysis: DataflowAnalysis[V]) -> DataflowResult[V]:
    """Iterate ``analysis`` over ``ir`` until nothing changes."""
    forward = analysis.direction == "forward"
    input_of: dict[str, V] = {n.op_id: analysis.top() for n in ir.nodes}
    output_of: dict[str, V] = {n.op_id: analysis.top() for n in ir.nodes}
    order = ir.nodes if forward else list(reversed(ir.nodes))
    boundary = analysis.boundary(ir)
    final = ir.final

    iterations = 0
    changed = True
    # a DAG needs one sweep in topological order; the cap only guards the
    # degenerate wiring a tolerant model can produce
    max_sweeps = max(2, len(ir.nodes) + 1)
    while changed and iterations < max_sweeps:
        changed = False
        iterations += 1
        for node in order:
            if forward:
                # dedupe by producer: several output slots of one node
                # (split) partition its value, they don't replicate it
                srcs = dict.fromkeys(e.src for e in ir.in_edges(node.op_id))
                incoming = [
                    boundary if src is None else output_of[src] for src in srcs
                ]
            else:
                dsts = dict.fromkeys(e.dst for e in ir.out_edges(node.op_id))
                incoming = [output_of[dst] for dst in dsts]
                if final is not None and node.op_id == final.op_id:
                    incoming.append(boundary)
            value = analysis.top()
            for v in incoming:
                value = analysis.join(value, v)
            out = analysis.transfer(node, value)
            if value != input_of[node.op_id] or out != output_of[node.op_id]:
                input_of[node.op_id] = value
                output_of[node.op_id] = out
                changed = True
    return DataflowResult(input_of=input_of, output_of=output_of, iterations=iterations)


# ---------------------------------------------------------------------------
# schema/type propagation (forward)
# ---------------------------------------------------------------------------

#: sentinel kinds of a SchemaValue
TOP = "top"
CONCRETE = "concrete"
BOTTOM = "bottom"


@dataclass(frozen=True)
class SchemaValue:
    """A lattice point: unknown schema, a concrete field list, or a conflict."""

    kind: str = TOP
    #: ordered (name, type) pairs when concrete
    fields: tuple[tuple[str, str], ...] = ()
    #: human-readable conflict reason when bottom
    reason: str = ""

    @classmethod
    def concrete(cls, fields) -> "SchemaValue":
        """A known schema from ordered ``(name, type)`` pairs."""
        return cls(kind=CONCRETE, fields=tuple(tuple(f) for f in fields))

    @classmethod
    def conflict(cls, reason: str) -> "SchemaValue":
        """The ⊥ value, remembering why propagation failed."""
        return cls(kind=BOTTOM, reason=reason)

    @property
    def is_known(self) -> bool:
        """True for a concrete (neither ⊤ nor ⊥) schema."""
        return self.kind == CONCRETE

    def names(self) -> tuple[str, ...]:
        """Field names, in order (empty unless concrete)."""
        return tuple(name for name, _ in self.fields)

    def field_type(self, name: str) -> Optional[str]:
        """Type of field ``name``, when concrete and present."""
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        return None


class SchemaAnalysis(DataflowAnalysis[SchemaValue]):
    """Forward schema propagation with ⊤/⊥ and conflict detection."""

    direction = "forward"

    def __init__(self, input_fields=None) -> None:
        #: the workflow-input schema as (name, type) pairs, when known
        self.input_fields = tuple(input_fields) if input_fields else None

    def top(self) -> SchemaValue:
        """⊤: schema not yet known."""
        return SchemaValue()

    def boundary(self, ir: PlanIR) -> SchemaValue:
        """The workflow-input schema (⊤ when no input config is bound)."""
        if self.input_fields is None:
            return SchemaValue()
        return SchemaValue.concrete(self.input_fields)

    def join(self, a: SchemaValue, b: SchemaValue) -> SchemaValue:
        """Agreeing schemas merge; disagreeing ones become a conflict."""
        if a.kind == TOP:
            return b
        if b.kind == TOP:
            return a
        if a.kind == BOTTOM:
            return a
        if b.kind == BOTTOM:
            return b
        if a.fields == b.fields:
            return a
        return SchemaValue.conflict(
            f"incoming schemas disagree: {list(a.names())} vs {list(b.names())}"
        )

    def transfer(self, node: IRNode, value: SchemaValue) -> SchemaValue:
        """Group add-ons append typed attributes; other stages pass through."""
        if not value.is_known:
            return value
        if node.kind != "group":
            # sort/split/distribute rearrange records without changing fields
            return value
        from repro.ops.base import addon_signature, registered_names

        fields = list(value.fields)
        names = {name for name, _ in fields}
        known = registered_names()["addon"]
        for addon in node.op.addons:
            if addon.operator.strip().lower() not in known:
                continue  # PAP005 territory; don't guess the attribute type
            attr = addon.attr or addon.operator
            if attr in names:
                return SchemaValue.conflict(
                    f"add-on attribute {attr!r} collides with an existing field"
                )
            fields.append((attr, addon_signature(addon.operator)[0]))
            names.add(attr)
        return SchemaValue.concrete(fields)


# ---------------------------------------------------------------------------
# column liveness (backward)
# ---------------------------------------------------------------------------


def node_column_uses(node: IRNode) -> set[str]:
    """Columns the operator itself reads: keys and add-on value fields.

    Key parameters frequently hold references (``$group.$indegree``); the
    IR's resolved parameter values make them plain names here.
    """
    uses: set[str] = set()
    if node.kind in ("sort", "group", "split"):
        key = node.param_value("key", "keyId")
        if key and "$" not in key:
            uses.add(key.strip())
    if node.kind == "group":
        for addon in node.op.addons:
            if addon.value and "$" not in addon.value:
                uses.add(addon.value.strip())
    return uses


def node_column_defs(node: IRNode) -> set[str]:
    """Columns the operator introduces (group add-on attributes)."""
    if node.kind != "group":
        return set()
    return {
        (addon.attr or addon.operator)
        for addon in node.op.addons
        if (addon.attr or addon.operator)
    }


class LivenessAnalysis(DataflowAnalysis[frozenset]):
    """Backward column liveness: which fields any downstream stage reads.

    The final partitions materialize whole records, so liveness here is
    *computational* liveness — the set a late-materialization optimizer
    must keep moving through intermediate exchanges; everything else can
    ride a row-id until the final assembly (the PAP083 advisory).
    """

    direction = "backward"

    def top(self) -> frozenset:
        """⊥ of the may-union lattice: nothing known live yet."""
        return frozenset()

    def boundary(self, ir: PlanIR) -> frozenset:
        """Nothing is computationally live after the final stage."""
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        """May-liveness: live on any outgoing path means live."""
        return a | b

    def transfer(self, node: IRNode, value: frozenset) -> frozenset:
        """live-in = uses(node) ∪ (live-out − defs(node))."""
        # live-in = uses(node) ∪ (live-out − defs(node))
        return frozenset(node_column_uses(node) | (value - node_column_defs(node)))


# ---------------------------------------------------------------------------
# cardinality estimation (forward)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CardValue:
    """Estimated data volume flowing along an edge.

    ``rows`` counts underlying records (NaN-free ``None`` = unknown);
    ``entries`` counts shuffle entries — records when flat, groups once a
    group operator packed them.  ``row_bytes`` is the in-memory structured
    width of one record, which is what every exchange actually moves.
    """

    rows: Optional[float] = None
    entries: Optional[float] = None
    row_bytes: Optional[float] = None
    packed: bool = False

    @property
    def est_bytes(self) -> Optional[float]:
        """Payload bytes a full shuffle of this value would move."""
        if self.rows is None or self.row_bytes is None:
            return None
        return self.rows * self.row_bytes


def _merge_opt(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


class CardinalityAnalysis(DataflowAnalysis[Optional[CardValue]]):
    """Forward row/entry estimation feeding the exchange cost model.

    ``input_rows`` comes from sampling the real input file (see
    :func:`repro.analysis.cost.estimate_input_rows`), from the user's
    ``--assume-records``, or stays ``None`` (volumes become unknown but
    the structural analysis still runs).  ``group_ratio`` is the sampled
    distinct-key fraction used for a group's output entry count.
    """

    direction = "forward"

    def __init__(
        self,
        input_rows: Optional[float] = None,
        input_row_bytes: Optional[float] = None,
        group_ratio: Optional[float] = None,
        addon_bytes: Optional[dict[str, float]] = None,
    ) -> None:
        self.input_rows = input_rows
        self.input_row_bytes = input_row_bytes
        self.group_ratio = group_ratio
        #: extra per-record width appended by each group node's add-ons
        self.addon_bytes = dict(addon_bytes or {})

    def top(self) -> Optional[CardValue]:
        """No estimate yet."""
        return None

    def boundary(self, ir: PlanIR) -> Optional[CardValue]:
        """The measured/assumed volume of the workflow input."""
        return CardValue(
            rows=self.input_rows,
            entries=self.input_rows,
            row_bytes=self.input_row_bytes,
        )

    def join(self, a: Optional[CardValue], b: Optional[CardValue]) -> Optional[CardValue]:
        """Streams meeting at a node add their volumes."""
        if a is None:
            return b
        if b is None:
            return a
        # two streams meeting (the hybrid-cut distribute): volumes add
        return CardValue(
            rows=_merge_opt(a.rows, b.rows),
            entries=_merge_opt(a.entries, b.entries),
            row_bytes=a.row_bytes if a.row_bytes is not None else b.row_bytes,
            packed=a.packed or b.packed,
        )

    def transfer(self, node: IRNode, value: Optional[CardValue]) -> Optional[CardValue]:
        """Group rescales entries and widens rows; other stages conserve."""
        if value is None:
            return None
        if node.kind == "group":
            entries = value.entries
            if value.rows is not None and self.group_ratio is not None:
                entries = max(1.0, value.rows * self.group_ratio)
            row_bytes = value.row_bytes
            extra = self.addon_bytes.get(node.op_id)
            if row_bytes is not None and extra:
                row_bytes = row_bytes + extra
            out_param = node.op.param("outputPath")
            packs = bool(out_param is not None and out_param.format == "pack")
            return CardValue(
                rows=value.rows,
                entries=entries,
                row_bytes=row_bytes,
                packed=value.packed or packs,
            )
        if node.kind == "split":
            # rows fan out across the split's outputs but their union is
            # conserved; per-node accounting keeps the total (the adjacent
            # distribute drains every output)
            return value
        # sort/distribute and basic operators conserve rows and width
        return value


def isfinite(x: Any) -> bool:
    """True for a real, finite number (guards rendered estimates)."""
    return isinstance(x, (int, float)) and math.isfinite(x)


def scaled(value: CardValue, fraction: float) -> CardValue:
    """A proportionally scaled copy of ``value`` (split-output estimates)."""
    return replace(
        value,
        rows=None if value.rows is None else value.rows * fraction,
        entries=None if value.entries is None else value.entries * fraction,
    )
