"""In-memory sort vs external merge sort under a memory budget.

Sorts the same record array twice — once with numpy's stable in-memory
argsort (the unbudgeted ``Sort`` path), once streamed through the
out-of-core :class:`ExternalSorter` under a budget far smaller than the
input — and measures wall time plus **peak tracked allocation**
(``tracemalloc``) for both.

Shape gates: the external sort's streamed output is byte-identical to the
in-memory sort, and its peak tracked allocation stays within a small
constant of the budget (``PEAK_FACTOR``x, covering argsort temporaries,
frame buffers, and merge cursors) while the in-memory path's peak scales
with the input.  ``PAPAR_BENCH_SMOKE=1`` shrinks the sweep for CI.
"""

import os
import tempfile
import time
import tracemalloc
import zlib

import numpy as np

from _harness import Experiment, shape
from repro.ooc.budget import MemoryBudget, parse_memory_budget
from repro.ooc.extsort import ExternalSorter
from repro.ooc.spill import OOCContext

SMOKE = bool(int(os.environ.get("PAPAR_BENCH_SMOKE", "0")))
SIZES = [30_000] if SMOKE else [100_000, 400_000]
BUDGET = "64KB" if SMOKE else "256KB"
#: budget multiple the external sort's tracked peak must stay under
PEAK_FACTOR = 8

DT = np.dtype([("key", "<i8"), ("payload", "<i8")])


def make_records(n):
    rng = np.random.default_rng(97)
    out = np.zeros(n, dtype=DT)
    out["key"] = rng.integers(0, n, n)
    out["payload"] = np.arange(n)
    return out


def in_memory_sort(arr):
    """(seconds, peak tracked bytes, crc32 of the sorted bytes)."""
    tracemalloc.start()
    t0 = time.perf_counter()
    result = arr[np.argsort(arr["key"], kind="stable")]
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, peak, zlib.crc32(result.tobytes())


def external_sort(arr, budget, spill_dir):
    """Same measurements for the streamed external sort.

    The input array is allocated *before* tracing starts and the sorted
    stream is checksummed frame by frame, so the tracked peak is the
    sorter's own working set — chunk copies, sorted runs in flight, and
    merge cursors — not the input or a materialized output.
    """
    chunk = MemoryBudget(budget).chunk_records(DT.itemsize)
    tracemalloc.start()
    t0 = time.perf_counter()
    ctx = OOCContext(MemoryBudget(budget), spill_dir)
    sorter = ExternalSorter(ctx, DT)
    for pos in range(0, len(arr), chunk):
        piece = arr[pos : pos + chunk]
        sorter.add_chunk(piece["key"], piece)
    crc = 0
    for frame in sorter.merged_frames():
        crc = zlib.crc32(frame.values.tobytes(), crc)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, peak, crc, ctx.stats.as_dict()


def test_external_sort_stays_inside_the_budget(benchmark, reporter):
    exp = Experiment(
        "OOC external sort",
        f"in-memory vs external merge sort under a {BUDGET} budget",
    )
    limit = parse_memory_budget(BUDGET)

    def run():
        rows = []
        for n in SIZES:
            arr = make_records(n)
            with tempfile.TemporaryDirectory(prefix="papar-bench-spill-") as d:
                mem_s, mem_peak, mem_crc = in_memory_sort(arr)
                ext_s, ext_peak, ext_crc, spill = external_sort(arr, BUDGET, d)
            rows.append((n, arr.nbytes, mem_s, mem_peak, mem_crc,
                         ext_s, ext_peak, ext_crc, spill))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for n, nbytes, mem_s, mem_peak, mem_crc, ext_s, ext_peak, ext_crc, spill in rows:
        exp.add(records=n, input_kib=round(nbytes / 1024, 1), path="in-memory",
                seconds=round(mem_s, 4), peak_kib=round(mem_peak / 1024, 1))
        exp.add(records=n, input_kib=round(nbytes / 1024, 1), path="external",
                seconds=round(ext_s, 4), peak_kib=round(ext_peak / 1024, 1),
                runs_written=spill["runs_written"],
                merge_fanin=spill["max_merge_fanin"])
        shape(ext_crc == mem_crc,
              f"external sort stream differs from the in-memory sort at {n} records")
        shape(ext_peak < limit * PEAK_FACTOR,
              f"external sort peak {ext_peak / 1024:.0f} KiB exceeds "
              f"{PEAK_FACTOR}x the {BUDGET} budget at {n} records")
        shape(mem_peak >= nbytes,
              "in-memory sort peak no longer scales with the input "
              "(the comparison is vacuous)")
        shape(spill["runs_written"] > 1, "external sort never spilled a run")
    n, nbytes = rows[-1][0], rows[-1][1]
    exp.note(f"smoke mode: {SMOKE}; budget {BUDGET} vs {nbytes / 1024:.0f} KiB input")
    exp.note(f"external peak {rows[-1][6] / 1024:.0f} KiB < "
             f"{PEAK_FACTOR}x budget; in-memory peak {rows[-1][3] / 1024:.0f} KiB")
    reporter.record(exp)
