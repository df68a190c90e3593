"""Synthetic power-law graph generators standing in for the SNAP datasets.

Table II evaluates on three SNAP graphs (Google, Pokec, LiveJournal).  The
files are not available offline, so each dataset is replaced by a synthetic
directed graph with the same vertex:edge ratio and a power-law in-degree
tail (all three SNAP graphs are power-law; the paper's hybrid-cut argument
rests exactly on that property).  ``scale`` shrinks the vertex count while
preserving the average degree, so laptop-scale runs keep the paper's shape.

The generator is a vectorized preferential-attachment/configuration hybrid:
out-endpoints are drawn uniformly; in-endpoints are drawn from a Zipf-like
weight vector ``w_v ~ (v+1)^(-1/(alpha-1))``, which yields an in-degree
power law with exponent ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PaParError
from .graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of one Table II dataset."""

    name: str
    vertices: int
    edges: int
    #: in-degree power-law exponent (typical measured values for each graph)
    alpha: float

    @property
    def avg_degree(self) -> float:
        return self.edges / self.vertices


#: Table II of the paper (vertex/edge counts from SNAP).
GOOGLE = DatasetSpec(name="google", vertices=875_713, edges=5_105_039, alpha=2.4)
POKEC = DatasetSpec(name="pokec", vertices=1_632_803, edges=30_622_564, alpha=2.6)
LIVEJOURNAL = DatasetSpec(
    name="livejournal", vertices=4_847_571, edges=68_993_773, alpha=2.5
)

DATASETS = {s.name: s for s in (GOOGLE, POKEC, LIVEJOURNAL)}


def generate_graph(
    name: str = "google",
    scale: float = 0.01,
    seed: int = 0,
    dedup: bool = True,
) -> Graph:
    """A scaled synthetic stand-in for one of the Table II datasets.

    ``scale`` multiplies the vertex count; the edge count keeps the original
    average degree.  ``dedup`` removes duplicate edges and self-loops (SNAP
    graphs are simple).
    """
    if name not in DATASETS:
        raise PaParError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    if not (0 < scale <= 1.0):
        raise PaParError(f"scale must be in (0, 1], got {scale!r}")
    spec = DATASETS[name]
    n = max(int(spec.vertices * scale), 10)
    m = max(int(n * spec.avg_degree), n)
    return generate_powerlaw(n, m, alpha=spec.alpha, seed=seed, dedup=dedup)


def generate_powerlaw(
    num_vertices: int,
    num_edges: int,
    alpha: float = 2.5,
    seed: int = 0,
    dedup: bool = True,
) -> Graph:
    """A directed graph with a power-law in-degree distribution."""
    if num_vertices < 2:
        raise PaParError(f"need at least 2 vertices, got {num_vertices!r}")
    if num_edges < 1:
        raise PaParError(f"need at least 1 edge, got {num_edges!r}")
    if alpha <= 1.0:
        raise PaParError(f"power-law exponent must be > 1, got {alpha!r}")
    rng = np.random.default_rng(seed)
    # Zipf-like in-endpoint weights yield P(indegree = d) ~ d^-alpha
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (alpha - 1.0))
    weights /= weights.sum()
    dst = rng.choice(num_vertices, size=num_edges, p=weights)
    src = rng.integers(0, num_vertices, size=num_edges)
    # scatter hub ids through the id space like real graphs (ids are not
    # degree-sorted in SNAP files)
    relabel = rng.permutation(num_vertices)
    src = relabel[src]
    dst = relabel[dst]
    if dedup:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        packed = src * np.int64(num_vertices) + dst
        _, unique_idx = np.unique(packed, return_index=True)
        unique_idx.sort()
        src, dst = src[unique_idx], dst[unique_idx]
    return Graph(src, dst, num_vertices=num_vertices)
