"""Single-node sort ablation — the ASPaS claim of Section IV-B.

"Note that even on a single compute node, PaPar is faster, thanks to ASPaS,
a highly optimized mergesort implementation on multicore processors.  We
used it in the sort operator implementation."

Three ways to get the stable order of the muBLASTP index sort key, which
must agree element for element:

* ``argsort`` — plain ``np.argsort(kind="stable")``, the scalar timsort
  numpy runs for anything wider than 16-bit keys (the kernel's fallback);
* ``packed`` — :func:`repro.order.stable_order`, key and index packed into
  one ``uint64`` and sorted by numpy's vectorized sort (``Sort``'s default
  ``"numpy"`` kernel);
* ``aspas`` — the ASPaS-style blocked mergesort (``Sort(kernel="aspas")``).

Shape gate: the packed kernel is at least 3x faster than plain ``argsort``
at 1e6 int32 keys.  ``PAPAR_BENCH_SMOKE=1`` (CI) runs only that gated
ablation and skips the statistical pytest-benchmark timings.
"""

import os
import time

import numpy as np
import pytest

from repro.bench import Experiment, shape
from repro.blast import generate_index
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA
from repro.ops import Sort
from repro.ops.aspas import aspas_argsort
from repro.order import stable_order

SMOKE = bool(int(os.environ.get("PAPAR_BENCH_SMOKE", "0")))
N = 1_000_000
TARGET_SPEEDUP = 3.0

statistical = pytest.mark.skipif(SMOKE, reason="smoke mode runs the gated ablation only")


def plain_argsort(keys):
    return np.argsort(keys, kind="stable")


KERNELS = {"argsort": plain_argsort, "packed": stable_order, "aspas": aspas_argsort}


@pytest.fixture(scope="module")
def index():
    return generate_index("env_nr", num_sequences=N, seed=41)


@statistical
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel(benchmark, index, kernel):
    out = benchmark(KERNELS[kernel], index["seq_size"])
    assert len(out) == N


def test_kernels_identical_and_packed_is_faster(benchmark, index, reporter):
    def run():
        exp = Experiment("ASPaS ablation", "stable-order kernels on the index sort key")
        keys = index["seq_size"]
        assert keys.dtype == np.int32
        orders, seconds = {}, {}
        for name, kernel in KERNELS.items():
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                orders[name] = kernel(keys)
                best = min(best, time.perf_counter() - t0)
            seconds[name] = best
        for name in KERNELS:
            exp.add(kernel=name, sequences=N, seconds=seconds[name],
                    speedup=seconds["argsort"] / seconds[name])
        identical = all(np.array_equal(orders["argsort"], o) for o in orders.values())
        ds = Dataset.from_array(BLAST_INDEX_SCHEMA, index)
        through_sort = [
            Sort("seq_size", kernel=kernel).apply_local(ds).records
            for kernel in ("numpy", "aspas")
        ]
        identical = identical and all(
            np.array_equal(index[orders["argsort"]], out) for out in through_sort
        )
        exp.note(f"orders identical: {identical}; smoke mode: {SMOKE}")
        return exp, identical, seconds["argsort"] / seconds["packed"]

    exp, identical, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    reporter.record(exp)
    shape(identical, "all three kernels (and both Sort kernels) produce the identical order")
    shape(
        speedup >= TARGET_SPEEDUP,
        f"packed kernel >= {TARGET_SPEEDUP}x np.argsort(kind='stable') at 1e6 int32 keys "
        f"(got {speedup:.1f}x)",
    )
