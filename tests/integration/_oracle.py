"""A workflow's partitions computed from the paper's definitions alone.

The product's backends share one rank program and one physical plan, so
comparing them with each other cannot expose a bug in that shared code.
This module is the independent reference: it interprets a parsed
``WorkflowSpec`` over a record array with the semantics of Table I and
Section III-B, and shares no code with the partitioner.  It reads the
configuration through :mod:`repro.config` and builds record layouts through
:mod:`repro.formats.records`; it imports nothing from ``repro.ops``,
``repro.policies``, ``repro.order`` or ``repro.core`` (CI checks this).

* **Sort** — a stable sort of the entries by key, ascending or descending,
  ties kept in input order (Python's ``sorted``, stable in both directions).
* **Group** — entries grouped by key, groups in ascending key order, records
  in input order inside a group; the ``count`` add-on appends the group's
  size as a ``long`` attribute.  ``pack`` keeps the groups as entries,
  ``orig`` lays them out flat.
* **Split** — each entry goes to the first ``{op, threshold}`` condition its
  key satisfies; each output then takes its format (``unpack`` flattens the
  groups, ``pack`` groups by the key, ``orig`` keeps the layout).
* **Distribute** — a 0/1 deal matrix built from the policy's definition,
  applied to the entry-index vector.  An entry is a record, or a group of a
  packed stream.  ``cyclic``, ``roundRobin`` and ``graphVertexCut`` put
  entry ``i`` in partition ``i mod P`` at slot ``i // P``, each stream on
  its own; ``block`` gives partition ``p`` a contiguous range, one entry
  longer on each of the first ``n mod P`` partitions.  Partition ``p`` is
  the ``p``-th slice of every stream, in stream order, unpacked.  When
  ``P | n`` the cyclic matrix is the textbook stride permutation
  ``L_{n/P}^n`` (:func:`stride_permutation_matrix`).
"""

from __future__ import annotations

import operator
import re
from typing import Any, Optional

import numpy as np
import scipy.sparse as sp

from repro.config.workflow import Bindings, WorkflowSpec, bind_arguments
from repro.formats.records import RecordSchema

_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
            "<": operator.lt, "==": operator.eq, "!=": operator.ne}
_CONDITION = re.compile(r"\{\s*(>=|<=|==|!=|>|<)\s*,\s*([^{}]+?)\s*\}")
_CYCLIC = {"cyclic", "roundrobin", "graphvertexcut"}


# -- the permutation matrices of Section III-B ---------------------------------


def stride_permutation_matrix(n: int, m: int) -> sp.csr_matrix:
    """The textbook ``L_m^n``: ``y = L @ x`` with ``y[j*m + i] = x[i*k + j]``
    for ``0 <= i < m``, ``0 <= j < k = n / m``."""
    if n < 0 or m < 1:
        raise ValueError(f"L_m^n needs n >= 0 and m >= 1; got n={n}, m={m}")
    if n and n % m:
        raise ValueError(f"L_m^n requires m | n; got n={n}, m={m}")
    k = n // m
    source = np.arange(n, dtype=np.int64)  # x[i*k + j]
    i, j = np.divmod(source, max(k, 1))
    return _matrix(rows=j * m + i, cols=source, n=n)


def deal_counts(n: int, num_partitions: int, policy: str) -> list[int]:
    """Entries per partition under ``policy``."""
    kind = _policy_kind(policy)
    if kind == "block":
        base, extra = divmod(n, num_partitions)
        return [base + (p < extra) for p in range(num_partitions)]
    return [len(range(p, n, num_partitions)) for p in range(num_partitions)]


def deal_matrix(n: int, num_partitions: int, policy: str) -> sp.csr_matrix:
    """The 0/1 matrix dealing ``n`` entries into ``num_partitions`` under
    ``policy``: row ``offset[p] + slot`` holds a 1 in the column of the entry
    that fills that slot of partition ``p``, so ``deal_matrix(...) @ x`` lists
    partition 0's entries, then partition 1's, and so on."""
    if n < 0 or num_partitions < 1:
        raise ValueError(f"cannot deal {n} entries into {num_partitions} partitions")
    counts = deal_counts(n, num_partitions, policy)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    entry = np.arange(n, dtype=np.int64)
    if _policy_kind(policy) == "block":
        part = np.repeat(np.arange(num_partitions, dtype=np.int64), counts)
        slot = entry - offsets[part]
    else:
        part, slot = entry % num_partitions, entry // num_partitions
    return _matrix(rows=offsets[part] + slot, cols=entry, n=n)


def _matrix(rows: np.ndarray, cols: np.ndarray, n: int) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(n, dtype=np.int64), (rows, cols)), shape=(n, n))


def _policy_kind(policy: str) -> str:
    name = policy.strip().lower()
    if name == "block":
        return "block"
    if name in _CYCLIC:
        return "cyclic"
    raise ValueError(f"the oracle knows no distribution policy {policy!r}")


# -- streams ------------------------------------------------------------------------


class Stream:
    """A list of entries over one schema: one-record arrays when flat, a
    group's records when packed (``key`` is the packing field)."""

    def __init__(self, schema: RecordSchema, entries: list[np.ndarray],
                 key: Optional[str] = None) -> None:
        self.schema = schema
        self.entries = entries
        self.key = key

    @classmethod
    def flat(cls, schema: RecordSchema, records: np.ndarray) -> "Stream":
        return cls(schema, [records[i : i + 1] for i in range(len(records))])

    def records(self) -> np.ndarray:
        """Every entry's records, in entry order."""
        if not self.entries:
            return np.empty(0, dtype=self.schema.dtype)
        return np.concatenate(self.entries)

    def grouped(self, field: str) -> "Stream":
        """The records grouped by ``field``: ascending keys, input order inside."""
        groups: dict[Any, list[np.ndarray]] = {}
        for entry in self.entries:
            for i in range(len(entry)):
                groups.setdefault(entry[field][i].item(), []).append(entry[i : i + 1])
        return Stream(self.schema, [np.concatenate(groups[k]) for k in sorted(groups)], field)

    def formatted(self, fmt: str, field: str) -> "Stream":
        """The stream in format ``fmt`` (``orig`` / ``pack`` / ``unpack``)."""
        if fmt == "unpack":
            return Stream.flat(self.schema, self.records())
        if fmt == "pack" and self.key is None:
            return self.grouped(field)
        if fmt in ("orig", "pack"):
            return self
        raise ValueError(f"the oracle knows no format {fmt!r}")


# -- the operators --------------------------------------------------------------------


def _key(entry: np.ndarray, field: str) -> Any:
    # a group's key and add-on attributes are uniform: its first record's
    return entry[field][0].item()


def _param(params: dict[str, Any], *names: str) -> Any:
    return next((params[n] for n in names if params.get(n) is not None), None)


def _ascending(params: dict[str, Any]) -> bool:
    ascending = True
    if params.get("flag") is not None:
        ascending = int(str(params["flag"]).strip()) == -1
    if params.get("ascending") is not None:
        ascending = str(params["ascending"]).strip().lower() in ("true", "1", "yes", "on")
    return ascending


def sort(stream: Stream, key: str, ascending: bool) -> Stream:
    """Stable by ``key``; ``reverse=True`` keeps ties in input order too."""
    entries = sorted(stream.entries, key=lambda e: _key(e, key), reverse=not ascending)
    return Stream(stream.schema, entries, stream.key)


def group(stream: Stream, key: str, addons: list[tuple[str, str]], fmt: str) -> Stream:
    grouped = Stream.flat(stream.schema, stream.records()).grouped(key)
    schema = stream.schema
    for name, attr in addons:
        if name != "count":
            raise ValueError(f"the oracle implements the count add-on only, not {name!r}")
        schema = schema.with_field(attr, "long")
        entries = []
        for entry in grouped.entries:
            out = np.empty(len(entry), dtype=schema.dtype)
            for field in entry.dtype.names:
                out[field] = entry[field]
            out[attr] = len(entry)
            entries.append(out)
        grouped = Stream(schema, entries, key)
    return grouped if fmt == "pack" else Stream.flat(schema, grouped.records())


def split(stream: Stream, key: str, policy: str, formats: list[str]) -> list[Stream]:
    conditions = [(_COMPARE[op], float(value)) for op, value in _CONDITION.findall(policy)]
    if not conditions:
        raise ValueError(f"the oracle cannot read split policy {policy!r}")
    routed: list[list[np.ndarray]] = [[] for _ in conditions]
    for entry in stream.entries:
        value = _key(entry, key)
        out = next((i for i, (cmp, bound) in enumerate(conditions) if cmp(value, bound)), None)
        if out is None:
            raise ValueError(f"key {value!r} matches no split condition of {policy!r}")
        routed[out].append(entry)
    formats = formats or ["orig"] * len(conditions)
    return [
        Stream(stream.schema, entries, stream.key).formatted(fmt, key)
        for entries, fmt in zip(routed, formats)
    ]


def distribute(streams: list[Stream], policy: str, num_partitions: int) -> list[np.ndarray]:
    """Partition ``p``: the ``p``-th slice of every stream, unpacked."""
    pieces: list[list[np.ndarray]] = [[] for _ in range(num_partitions)]
    for stream in streams:
        n = len(stream.entries)
        order = deal_matrix(n, num_partitions, policy) @ np.arange(n, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(deal_counts(n, num_partitions, policy))))
        for p in range(num_partitions):
            chosen = order[offsets[p] : offsets[p + 1]]
            pieces[p].append(Stream(stream.schema, [stream.entries[i] for i in chosen]).records())
    return [np.concatenate(parts) for parts in pieces]


# -- the workflow ----------------------------------------------------------------------


def _resolved(op, env: Bindings) -> dict[str, Any]:
    return {name: ps.coerce(env.resolve(ps.value)) for name, ps in op.params.items()}


def _reads(path: Optional[str], outputs: dict[str, Stream], previous: list[str]) -> list[str]:
    """The earlier outputs a job reads: the previous job's when it names no
    input, else those its path names exactly or as a ``/``-bounded directory."""
    if path is None:
        return previous
    prefix = path.rstrip("/") + "/"
    return [out for out in outputs if out == path or out.startswith(prefix)]


def partitions(
    spec: WorkflowSpec, schema: RecordSchema, records: np.ndarray, args: dict[str, Any]
) -> tuple[RecordSchema, list[np.ndarray]]:
    """The final Distribute's partitions of ``records`` under ``spec``, and
    their schema."""
    env = bind_arguments(spec, args)
    outputs: dict[str, Stream] = {}
    previous: list[str] = []
    for op in spec.operators:
        params = _resolved(op, env)
        path = _param(params, "inputPath", "input", "inputPathList")
        read = _reads(None if path is None else str(path), outputs, previous)
        streams = [outputs[p] for p in read] or [Stream.flat(schema, records)]
        key = _param(params, "key", "keyId")
        kind = op.kind
        if kind == "distribute":
            policy = str(_param(params, "distrPolicy", "policy") or "cyclic")
            nparts = int(_param(params, "numPartitions", "num_partitions"))
            return streams[0].schema, distribute(streams, policy, nparts)
        if op.addons and kind != "group":
            raise ValueError(f"the oracle applies add-ons on a group only, not on {op.id!r}")
        (stream,) = streams
        if kind == "sort":
            results = [sort(stream, str(key), _ascending(params))]
            paths = [str(_param(params, "outputPath", "ouputPath") or f"/tmp/{op.id}")]
        elif kind == "group":
            addons = [(a.operator.strip().lower(), a.attr or a.operator) for a in op.addons]
            for _, attr in addons:
                env.bind(f"{op.id}.{attr}", attr)
            out = op.params.get("outputPath")
            results = [group(stream, str(key), addons, (out.format if out else None) or "orig")]
            paths = [str(_param(params, "outputPath", "ouputPath") or f"/tmp/{op.id}")]
        elif kind == "split":
            listed = op.params["outputPathList"]
            formats = [f.strip() for f in (listed.format or "").split(",") if f.strip()]
            results = split(stream, str(key), str(_param(params, "policy", "splitPolicy")), formats)
            paths = [str(p) for p in params["outputPathList"]]
        else:
            raise ValueError(f"the oracle knows no operator {op.operator!r}")
        outputs.update(zip(paths, results))
        previous = paths
        env.bind(f"{op.id}.outputPath", paths[0])
        if len(paths) > 1:
            env.bind(f"{op.id}.outputPathList", paths)
    raise ValueError(f"workflow {spec.id!r} ends in no Distribute")
