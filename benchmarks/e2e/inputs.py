"""Seeded input generators for the end-to-end benchmark.

Everything here imports numpy only — never ``repro`` — so the program
under test sees nothing but the files these functions write.  The same
``(size, seed)`` always produces the same bytes; :func:`cached` keeps one
generated file per generator and size so repeated runs of one seed skip
the (untimed) generation.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable

import numpy as np

#: record layout of ``configs/blast_db.xml`` (four 32-bit integers)
BLAST_DTYPE = np.dtype(
    [("seq_start", "<i4"), ("seq_size", "<i4"),
     ("desc_start", "<i4"), ("desc_size", "<i4")]
)
#: the 32 opaque header bytes ``blast_db.xml`` declares as start_position
BLAST_HEADER = b"\x00" * 32


def blast_index(n: int, seed: int) -> np.ndarray:
    """A muBLASTP-style index: heavy-tailed ``seq_size`` with many ties.

    Sequence lengths follow a clipped Pareto tail (a few very long
    sequences, most short), quantized to integers so that millions of
    records share ~10k distinct keys: the stable sort's tie order decides
    which partition each record lands in.  ``seq_start`` is the arrival
    index, which makes every record distinct so a byte comparison of the
    outputs catches any reordering among ties.
    """
    rng = np.random.default_rng(seed)
    records = np.empty(n, dtype=BLAST_DTYPE)
    records["seq_size"] = np.minimum(rng.pareto(1.6, n) * 120 + 20, 35_000)
    records["seq_start"] = np.arange(n, dtype=np.int32)
    records["desc_start"] = np.arange(n, dtype=np.int32)[::-1]
    records["desc_size"] = rng.integers(20, 200, n, dtype=np.int32)
    return records


def write_blast_index(path: str, records: np.ndarray) -> None:
    """Write ``records`` in the binary layout ``blast_db.xml`` describes."""
    with open(path, "wb") as fh:
        fh.write(BLAST_HEADER)
        fh.write(records.tobytes())


def edge_list(n_edges: int, seed: int, threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """A power-law edge list ``(vertex_a, vertex_b)`` of exactly ``n_edges``.

    In-degrees (edges per ``vertex_b``) follow a discrete Pareto law tuned
    so that about 30 % of the edges point at vertices with in-degree
    >= ``threshold``.  Two planted vertices guarantee that both sides of
    the hybrid-cut split are non-empty for every seed: a hub with in-degree
    ``2 * threshold`` and a vertex with in-degree 1.
    """
    if n_edges < 2 * threshold + 1:
        raise ValueError(f"need at least {2 * threshold + 1} edges, got {n_edges}")
    rng = np.random.default_rng(seed)
    vertices = max(16, n_edges // 4)
    degrees = np.minimum(np.floor(rng.pareto(1.5, vertices) * 2).astype(np.int64) + 1, 2_000)
    while degrees.sum() < n_edges:  # tiny inputs can draw too few edges
        degrees += 1
    vertex_b = np.repeat(np.arange(vertices, dtype=np.int64), degrees)
    rng.shuffle(vertex_b)
    vertex_b = vertex_b[:n_edges]
    vertex_b[: 2 * threshold] = vertices          # the planted hub
    vertex_b[2 * threshold] = vertices + 1        # the planted leaf
    rng.shuffle(vertex_b)
    vertex_a = rng.integers(0, vertices, n_edges, dtype=np.int64)
    return vertex_a, vertex_b


def write_edge_list(path: str, vertex_a: np.ndarray, vertex_b: np.ndarray) -> None:
    """Write ``a<TAB>b`` lines, the text layout of ``configs/graph_edge.xml``."""
    lines = [f"{a}\t{b}\n" for a, b in zip(vertex_a.tolist(), vertex_b.tolist())]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def sha256_file(path: str) -> str:
    """Hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cached(cache_dir: str, kind: str, size: int, seed: int,
           write: Callable[[str], None]) -> str:
    """Path of the generated ``(kind, size, seed)`` file, writing it if absent.

    Files of the same kind and size but another seed are removed first, so
    a sweep over seeds keeps one file per generator on disk, not one per
    seed.
    """
    os.makedirs(cache_dir, exist_ok=True)
    prefix = f"{kind}-{size}-"
    name = f"{prefix}seed{seed}"
    path = os.path.join(cache_dir, name)
    for other in os.listdir(cache_dir):
        if other.startswith(prefix) and other != name:
            os.remove(os.path.join(cache_dir, other))
    if not os.path.exists(path):
        tmp = path + ".tmp"
        write(tmp)
        os.replace(tmp, path)
    return path
