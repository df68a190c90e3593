"""Output oracles: what the partitioner must have written, recomputed here.

Each check reads the *input file the program saw* and the ``part-NNNNN``
files it wrote, and returns ``None`` when they agree or a one-line reason
when they do not.  The oracles share no code with ``repro``: a bug in the
program cannot hide inside its own verification.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Optional

import numpy as np

from inputs import BLAST_DTYPE, BLAST_HEADER


def part_path(out_dir: str, index: int) -> str:
    """``out_dir/part-NNNNN``, the Hadoop-style name the CLI writes."""
    return os.path.join(out_dir, f"part-{index:05d}")


def read_blast_index(path: str) -> np.ndarray:
    """The records of a binary index file (header skipped)."""
    return np.fromfile(path, dtype=BLAST_DTYPE, offset=len(BLAST_HEADER))


def blast_expected_parts(records: np.ndarray, partitions: int) -> list[bytes]:
    """The exact bytes of every part file of the BLAST workflow.

    Stable sort by ``seq_size``, then deal sorted position ``i`` to part
    ``i mod partitions`` — the paper's Figure 9.  One oracle serves the
    serial, process and out-of-core workloads: they must agree bit for bit.
    """
    ordered = records[np.argsort(records["seq_size"], kind="stable")]
    return [BLAST_HEADER + ordered[p::partitions].tobytes() for p in range(partitions)]


def verify_blast(out_dir: str, expected: list[bytes]) -> Optional[str]:
    """Byte-compare every part file against the oracle's bytes."""
    for p, want in enumerate(expected):
        path = part_path(out_dir, p)
        try:
            with open(path, "rb") as fh:
                got = fh.read()
        except OSError as exc:
            return f"{path}: {exc}"
        if got != want:
            return f"{path}: contents differ from the oracle ({len(got)} bytes, expected {len(want)})"
    if os.path.exists(part_path(out_dir, len(expected))):
        return f"{out_dir}: more than {len(expected)} part files"
    return None


def read_edge_list(path: str, columns: int) -> np.ndarray:
    """An integer text table as an ``(n, columns)`` int64 array."""
    with open(path, "rb") as fh:
        flat = np.array(fh.read().split(), dtype=np.int64)
    if flat.size % columns:
        raise ValueError(f"{path}: {flat.size} tokens do not fill {columns} columns")
    return flat.reshape(-1, columns)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def hybrid_digests(out_dir: str, partitions: int) -> list[str]:
    """sha256 of each part file, in partition order."""
    digests = []
    for p in range(partitions):
        with open(part_path(out_dir, p), "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return digests


def verify_hybrid(
    out_dir: str,
    edges: np.ndarray,
    partitions: int,
    threshold: int,
    digests: Optional[list[str]] = None,
) -> Optional[str]:
    """Check the hybrid-cut parts against the input edge list.

    * every input edge appears in exactly one part (multiset equality);
    * each part line carries its destination's true in-degree;
    * a vertex with in-degree below ``threshold`` has all its in-edges in
      one partition (the low-cut half of PowerLyra's hybrid-cut);
    * with ``digests`` (the committed ones of the default seed), each part
      file has exactly that sha256.
    """
    try:
        parts = [read_edge_list(part_path(out_dir, p), 3) for p in range(partitions)]
    except (OSError, ValueError) as exc:
        return f"{out_dir}: unreadable part file: {exc}"
    rows = np.concatenate(parts)
    owner = np.repeat(np.arange(partitions), [len(p) for p in parts])
    if len(rows) != len(edges) or not np.array_equal(
        _sorted_rows(rows[:, :2]), _sorted_rows(edges)
    ):
        return f"{out_dir}: parts hold {len(rows)} edges, not the input's {len(edges)} edge multiset"
    indegree = np.bincount(edges[:, 1])
    if not np.array_equal(rows[:, 2], indegree[rows[:, 1]]):
        return f"{out_dir}: a part line carries a wrong in-degree"
    low = rows[:, 2] < threshold
    first = np.full(len(indegree), partitions)
    last = np.full(len(indegree), -1)
    np.minimum.at(first, rows[low, 1], owner[low])
    np.maximum.at(last, rows[low, 1], owner[low])
    torn = np.flatnonzero(first < last)
    if len(torn):
        return f"{out_dir}: low-degree vertex {torn[0]} is split across partitions"
    if not low.any() or low.all():
        return f"{out_dir}: one side of the split is empty"
    if digests is not None and hybrid_digests(out_dir, partitions) != digests:
        return f"{out_dir}: part files differ from the committed sha256 digests"
    return None


def verify_serve(
    query: dict[str, Any], metrics: dict[str, Any], warm: int, appended: int
) -> Optional[str]:
    """Check a drained daemon's own accounting against the client's."""
    if query.get("log_records") != warm + appended:
        return f"log_records {query.get('log_records')} != warm {warm} + appended {appended}"
    in_partitions = sum(p["records"] for p in query.get("partitions", []))
    if query.get("total_records") != in_partitions:
        return f"total_records {query.get('total_records')} != sum of partitions {in_partitions}"
    if in_partitions != warm + appended:
        return f"partitions hold {in_partitions} records, not {warm + appended}"
    if metrics.get("rejected") != 0:
        return f"daemon rejected {metrics.get('rejected')} request(s)"
    if metrics.get("appended_records") != appended:
        return f"daemon counted {metrics.get('appended_records')} appended records, client {appended}"
    return None
