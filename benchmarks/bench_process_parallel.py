"""Wall-clock parallel speedup on the process backend.

All cluster-scale figures use priced time (DESIGN.md §6); this bench is
the honesty check on real hardware, in two parts:

* **Process parallelism** — the distributed sample-sort kernel on 1 vs N
  rank processes; the speedup is bounded by shuffle serialization but must
  be real (> 1) on multicore hosts.
* **Process shuffle** — the headline gate for the zero-copy transport: a
  1M-record columnar hash-shuffle + group + sum driven by the executor's
  kernels (``partition_array`` → ``bucketize`` → ``alltoall`` → ``group``
  → ``reduceat``), threaded fabric vs forked ranks over shared memory.
  On a >= 4-core host the process backend must win by >= 2.5x at 4
  workers.  The smoke mode (``PAPAR_BENCH_SMOKE=1``) shrinks the input to
  200k records at 2 workers and records the speedup without gating it:
  there the threaded run is shorter than fork + teardown alone.  Either
  way the run pins ``pickle_bytes == 0`` (every array byte travelled
  out-of-band) and that no ``/dev/shm`` segment survives.

Artifact: ``results/process_shuffle.{txt,json}`` (guide:
``docs/process-backend.md``).
"""

import os
import time

import numpy as np
import pytest

from _harness import Experiment, shape
from repro.mpi import run_mpi
from repro.mpi.process_backend import run_mpi_processes
from tests.mpi.test_process_backend import _sort_prog

SMOKE = bool(os.environ.get("PAPAR_BENCH_SMOKE"))

N = 2_000_000
RANKS = min(4, os.cpu_count() or 1)

#: the shuffle gate's shape: records, workers, required speedup (the smoke
#: size only records it)
SHUFFLE_N = 200_000 if SMOKE else 1_000_000
SHUFFLE_WORKERS = 2 if SMOKE else 4
SHUFFLE_ROUNDS = 2 if SMOKE else 3
SHUFFLE_GATE = 2.5


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    return rng.integers(0, 1 << 40, size=N)


def run_scaling(data):
    exp = Experiment(
        "Process parallelism", "wall-clock distributed sort, 1 vs N rank processes"
    )
    walls = {}
    for ranks in (1, RANKS):
        t0 = time.perf_counter()
        run = run_mpi_processes(_sort_prog, ranks, args=(data,))
        walls[ranks] = time.perf_counter() - t0
        merged = np.concatenate(run.results)
        assert len(merged) == N
        exp.add(ranks=ranks, wall_s=walls[ranks], records=N)
    exp.note(f"host has {os.cpu_count()} cpus; speedup includes process startup + shuffle")
    return exp, walls


def test_process_parallel_speedup(benchmark, data, reporter):
    if RANKS < 2:
        pytest.skip("single-core host")
    exp, walls = benchmark.pedantic(run_scaling, args=(data,), rounds=1, iterations=1)
    reporter.record(exp)
    shape(
        walls[RANKS] < walls[1],
        f"{RANKS} rank processes beat 1 in wall clock "
        f"({walls[RANKS]:.2f}s < {walls[1]:.2f}s)",
    )


def test_numpy_sort_baseline(benchmark, data):
    out = benchmark(np.sort, data, kind="stable")
    assert len(out) == N


# -- the zero-copy shuffle gate ---------------------------------------------


def _shuffle_prog(comm, keys, values, rounds):
    """One rank of the MR shuffle: columnar hash-shuffle + group + sum."""
    from repro.mapreduce.columnar import KVBatch, bucketize, group
    from repro.mapreduce.partitioner import HashPartitioner

    n = len(keys)
    base, extra = divmod(n, comm.size)
    lo = comm.rank * base + min(comm.rank, extra)
    hi = lo + base + (1 if comm.rank < extra else 0)
    local = KVBatch(keys[lo:hi], values[lo:hi])
    partitioner = HashPartitioner(comm.size)
    checksum = 0
    for _ in range(rounds):
        owners = partitioner.partition_array(local.keys)
        inboxes = comm.alltoall(
            [local.take(idx) for idx in bucketize(owners, comm.size)]
        )
        grouped = group(KVBatch(
            keys=np.concatenate([b.keys for b in inboxes]),
            values=np.concatenate([b.values for b in inboxes]),
        ))
        sums = np.add.reduceat(grouped.values, grouped.offsets[:-1])
        checksum += int(sums.sum())
    return checksum


def _timed(launcher, workers, keys, values):
    t0 = time.perf_counter()
    run = launcher(
        _shuffle_prog, workers, args=(keys, values, SHUFFLE_ROUNDS), kwargs=None
    )
    wall = time.perf_counter() - t0
    total = int(values.sum()) * SHUFFLE_ROUNDS
    assert sum(run.results) == total  # every round conserves the values
    return wall, run


def run_shuffle_gate():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 10_000, size=SHUFFLE_N)
    values = rng.integers(0, 1_000, size=SHUFFLE_N)

    thread_wall, _ = _timed(run_mpi, SHUFFLE_WORKERS, keys, values)
    process_wall, proc_run = _timed(run_mpi_processes, SHUFFLE_WORKERS, keys, values)
    speedup = thread_wall / process_wall

    t = proc_run.extra["transport"]
    exp = Experiment(
        "Process shuffle",
        f"{SHUFFLE_N:,}-record MR shuffle x{SHUFFLE_ROUNDS}, "
        f"threaded fabric vs {SHUFFLE_WORKERS} forked ranks over shared memory",
    )
    exp.add(fabric="threaded", workers=SHUFFLE_WORKERS, wall_s=thread_wall,
            records=SHUFFLE_N, shm_bytes=0, pickle_bytes=0)
    exp.add(fabric="process", workers=SHUFFLE_WORKERS, wall_s=process_wall,
            records=SHUFFLE_N, shm_bytes=t["shm_bytes"],
            pickle_bytes=t["pickle_bytes"])
    exp.note(f"speedup {speedup:.2f}x on {os.cpu_count()} cpu(s); "
             f"segments created {t['segments_created']}, "
             f"swept at teardown {t['segments_unlinked']}")
    if SMOKE:
        exp.note("smoke mode: shrunken input, speedup recorded, not gated")
    return exp, speedup, t


def test_process_shuffle_speedup(benchmark, reporter):
    exp, speedup, transport = benchmark.pedantic(
        run_shuffle_gate, rounds=1, iterations=1
    )
    reporter.record(exp)
    # the zero-copy pin holds regardless of core count
    shape(
        transport["pickle_bytes"] == 0,
        "numpy payloads travel via shared memory, never the pickle lane",
    )
    from repro.mpi.shm import scan_segments

    shape(
        scan_segments(transport["shm_prefix"]) == [],
        "no /dev/shm segment survives the run",
    )
    if SMOKE:
        return
    cpus = os.cpu_count() or 1
    if cpus < SHUFFLE_WORKERS:
        pytest.skip(
            f"speedup gate needs >= {SHUFFLE_WORKERS} cpus (host has {cpus}); "
            "transport pins still checked"
        )
    shape(
        speedup >= SHUFFLE_GATE,
        f"process backend >= {SHUFFLE_GATE}x over threaded at "
        f"{SHUFFLE_WORKERS} workers (got {speedup:.2f}x)",
    )
