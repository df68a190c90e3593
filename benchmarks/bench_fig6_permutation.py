"""Figure 6 / Section III-B ablation — permutation-matrix distribution.

The paper formalizes distribution policies as stride-permutation matrices
applied by matrix-vector multiplication.  The product applies them in their
O(n) index form; the literal sparse matrix lives in the test oracle
(``tests/integration/_oracle.py``), built from each policy's definition.
This bench measures the matrix form against the index form, and the
end-to-end ``Distribute`` operator against the matrix applied to the same
records (identical partitions).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from _harness import Experiment, shape
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA
from repro.ops import Distribute
from repro.policies import cyclic_permutation_indices

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "integration"))
try:
    from _oracle import deal_counts, deal_matrix, stride_permutation_matrix
finally:
    sys.path.pop(0)

N = 1 << 18
PARTS = 32


@pytest.fixture(scope="module")
def vector():
    return np.arange(N, dtype=np.int64)


@pytest.fixture(scope="module")
def matrix():
    return stride_permutation_matrix(N, N // PARTS)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    records = np.empty(N // 16, dtype=BLAST_INDEX_SCHEMA.dtype)
    for name in records.dtype.names:
        records[name] = rng.integers(0, 1 << 20, size=len(records))
    return Dataset.from_array(BLAST_INDEX_SCHEMA, records)


def test_index_form_kernel(benchmark, vector):
    perm = benchmark(cyclic_permutation_indices, N, PARTS)
    assert len(perm) == N


def test_matrix_form_kernel(benchmark, vector, matrix):
    out = benchmark(matrix.dot, vector)
    assert len(out) == N


def matrix_partitions(records, parts):
    """The cyclic deal as the paper writes it: the 0/1 matrix times the
    entry-index vector, then one gather per partition."""
    n = len(records)
    order = deal_matrix(n, parts, "cyclic") @ np.arange(n, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(deal_counts(n, parts, "cyclic"))))
    return [records[order[offsets[p] : offsets[p + 1]]] for p in range(parts)]


def test_distribute_operator_both_modes(benchmark, dataset, reporter):
    def run():
        import time

        exp = Experiment(
            "Figure 6 ablation", "Distribution as matrix-vector product vs index form"
        )
        modes = {
            "index": lambda: [p.records for p in Distribute("cyclic", PARTS).apply_local(dataset)],
            "matrix-vector": lambda: matrix_partitions(dataset.records, PARTS),
        }
        out = {}
        for mode, deal in modes.items():
            t0 = time.perf_counter()
            out[mode] = deal()
            elapsed = time.perf_counter() - t0
            exp.add(mode=mode, entries=len(dataset), partitions=len(out[mode]), seconds=elapsed)
        identical = all(
            np.array_equal(a, b) for a, b in zip(out["matrix-vector"], out["index"])
        )
        exp.note(f"partitions identical across modes: {identical}")
        return exp, identical

    exp, identical = benchmark.pedantic(run, rounds=1, iterations=1)
    reporter.record(exp)
    shape(identical, "matrix-vector and index forms produce identical partitions")
