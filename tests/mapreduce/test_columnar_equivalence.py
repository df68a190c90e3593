"""The columnar fast path computes exactly what the per-pair path computes.

Three layers of equivalence, all seeded and randomized:

1. **Kernels** — ``bucketize`` equals the per-destination ``flatnonzero``
   scans it replaced; ``partition_array`` equals elementwise ``__call__``
   for every partitioner; columnar ``group`` equals dict grouping.
2. **Engine phases** — ``MRMPIEngine`` fed a :class:`KVBatch` emits
   byte-identical shuffle / group / reduce outputs (and identical
   records-moved accounting) to the same phases fed Python pairs, across
   random keys, values, rank counts and combiner choices.
3. **Workflows** — the two case studies (muBLASTP sort->distribute,
   hybrid-cut group->split->distribute) produce identical partitions,
   identical ``bytes_moved`` and identical virtual time at 1, 4 and 8
   ranks whether owners are bucketized by the shared argsort kernel or by
   the reference scans — the fast path changes wall-clock only.
"""

import numpy as np
import pytest

import repro.core.runtime as runtime_mod
from repro import PaPar
from repro.blast import build_index, generate_database
from repro.cluster import INFINIBAND_QDR, ClusterModel
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.errors import MapReduceError
from repro.formats import BLAST_INDEX_SCHEMA
from repro.graph import generate_graph
from repro.mapreduce import (
    COMBINERS,
    ExplicitPartitioner,
    GroupedKVBatch,
    HashPartitioner,
    KVBatch,
    MRMPIEngine,
    PerfCounters,
    RangePartitioner,
    bucketize,
    stable_hash,
    stable_hash_array,
)
from repro.mapreduce.columnar import group as columnar_group
from repro.mapreduce.engine import identity_reduce
from repro.mapreduce.partitioner import FnPartitioner
from repro.mpi import run_mpi


def scan_bucketize(owners, num_buckets):
    """The replaced per-destination scan loop, kept as the reference oracle."""
    owners = np.asarray(owners)
    return [np.flatnonzero(owners == b) for b in range(num_buckets)]


# -- layer 1: kernels --------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("num_buckets", [1, 3, 8, 17])
def test_bucketize_equals_scans(seed, num_buckets):
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, num_buckets, int(rng.integers(0, 5000)))
    got = bucketize(owners, num_buckets)
    want = scan_bucketize(owners, num_buckets)
    assert len(got) == len(want) == num_buckets
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_bucketize_validation():
    with pytest.raises(MapReduceError):
        bucketize(np.array([0, 3]), 3)
    with pytest.raises(MapReduceError):
        bucketize(np.array([-1, 0]), 3)
    with pytest.raises(MapReduceError):
        bucketize(np.zeros((2, 2)), 2)
    empty = bucketize(np.empty(0, dtype=np.int64), 4)
    assert len(empty) == 4 and all(len(b) == 0 for b in empty)


@pytest.mark.parametrize("seed", [0, 7])
def test_partition_array_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    int_keys = rng.integers(0, 10_000_000, 2000)
    byte_keys = np.array(
        [bytes(rng.integers(65, 90, 6).tolist()) for _ in range(300)], dtype="S6"
    )
    for part in (
        HashPartitioner(7),
        RangePartitioner([100, 5000, 90_000], 4),
        FnPartitioner(lambda k: int(k) % 5, 5),  # exercises the base-class loop
    ):
        np.testing.assert_array_equal(
            part.partition_array(int_keys),
            np.array([part(int(k)) for k in int_keys]),
        )
    hash7 = HashPartitioner(7)
    np.testing.assert_array_equal(
        hash7.partition_array(byte_keys),
        np.array([hash7(k) for k in byte_keys.tolist()]),
    )
    np.testing.assert_array_equal(
        stable_hash_array(byte_keys),
        np.array([stable_hash(k) for k in byte_keys.tolist()]),
    )
    ids = rng.integers(0, 9, 500)
    explicit = ExplicitPartitioner(9)
    np.testing.assert_array_equal(
        explicit.partition_array(ids), np.array([explicit(int(k)) for k in ids])
    )
    with pytest.raises(MapReduceError):
        explicit.partition_array(np.array([0, 9]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_group_matches_dict_grouping(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3000))
    keys = rng.integers(0, 50, n)
    values = rng.integers(0, 1_000_000, n)
    batch = KVBatch(keys, values)
    ref: dict = {}
    for k, v in batch.pairs():
        ref.setdefault(k, []).append(v)
    grouped = columnar_group(batch, order="first-seen")
    assert grouped.items() == list(ref.items())
    by_key = columnar_group(batch, order="key")
    assert by_key.keys.tolist() == sorted(set(keys.tolist()))
    assert dict(by_key.items()) == ref


def test_perf_counters_merge_semantics():
    a, b = PerfCounters(), PerfCounters()
    a.count_move(10, 100)
    b.count_move(5, 50)
    a.phases["sort"] = [1.0, 2.0]
    b.phases["sort"] = [3.0, 1.5]
    total = PerfCounters.merge_ranks([a, None, b])
    assert total.records_moved == 15
    assert total.bytes_moved == 150
    # wall sums (total CPU work), virtual takes the max (critical path)
    assert total.phases["sort"] == [4.0, 2.0]
    assert total.summary()["phases"]["sort"] == {"wall_s": 4.0, "virtual_s": 2.0}


# -- layer 2: engine phases --------------------------------------------------


def _random_case(rng):
    """One randomized scenario: keys, values, ranks, partitioner, combiner."""
    n = int(rng.integers(1, 4000))
    if rng.integers(0, 2):
        keys = rng.integers(0, int(rng.integers(2, 500)), n)
    else:
        keys = np.array(
            [bytes(rng.integers(65, 75, 4).tolist()) for _ in range(n)], dtype="S4"
        )
    values = rng.integers(0, 1000, n)
    ranks = int(rng.choice([1, 4, 8]))
    reducers = int(rng.choice([1, 3, ranks, 2 * ranks + 1]))
    if keys.dtype.kind == "S":
        partitioner = HashPartitioner(reducers)
    else:
        which = int(rng.integers(0, 3))
        if which == 0:
            partitioner = HashPartitioner(reducers)
        elif which == 1:
            bounds = np.sort(rng.integers(0, 500, reducers - 1)).tolist()
            partitioner = RangePartitioner(bounds, reducers)
        else:
            partitioner = FnPartitioner(lambda k, m=reducers: int(k) % m, reducers)
    combiner_name = [None, "count", "sum", "min", "max", "mean"][int(rng.integers(0, 6))]
    return keys, values, ranks, partitioner, combiner_name


def _block_slice(n, rank, size):
    base, extra = divmod(n, size)
    lo = rank * base + min(rank, extra)
    return lo, lo + base + (1 if rank < extra else 0)


def _stage_program(comm, keys, values, use_batch, partitioner, combiner_name, perf_slots):
    perf = PerfCounters()
    eng = MRMPIEngine(comm, perf=perf)
    lo, hi = _block_slice(len(keys), comm.rank, comm.size)
    if use_batch:
        local = KVBatch(keys[lo:hi], values[lo:hi])
    else:
        local = list(zip(keys[lo:hi].tolist(), values[lo:hi].tolist()))
    shuffled = eng.shuffle(local, partitioner)
    grouped = eng.group(shuffled)
    reduce_fn = COMBINERS[combiner_name] if combiner_name else identity_reduce
    reduced = eng.reduce(grouped, reduce_fn)
    perf_slots[comm.rank] = perf
    if use_batch:
        assert isinstance(shuffled, KVBatch)
        assert isinstance(grouped, GroupedKVBatch)
        raw = (
            shuffled.keys.tobytes(),
            shuffled.values.tobytes(),
            str(shuffled.keys.dtype),
            str(shuffled.values.dtype),
        )
        return shuffled.pairs(), grouped.items(), reduced.pairs(), raw
    return list(shuffled), list(grouped), list(reduced), None


@pytest.mark.parametrize("seed", range(8))
def test_engine_columnar_equals_generic(seed):
    rng = np.random.default_rng(seed)
    keys, values, ranks, partitioner, combiner_name = _random_case(rng)

    generic_slots: list = [None] * ranks
    columnar_slots: list = [None] * ranks
    generic = run_mpi(
        _stage_program, ranks,
        args=(keys, values, False, partitioner, combiner_name, generic_slots),
    ).results
    columnar = run_mpi(
        _stage_program, ranks,
        args=(keys, values, True, partitioner, combiner_name, columnar_slots),
    ).results

    for (g_shuf, g_grp, g_red, _), (c_shuf, c_grp, c_red, raw) in zip(generic, columnar):
        assert c_shuf == g_shuf
        assert c_grp == g_grp
        if combiner_name == "mean":
            assert [k for k, _ in c_red] == [k for k, _ in g_red]
            assert [v for _, v in c_red] == pytest.approx([v for _, v in g_red])
        else:
            assert c_red == g_red
        # byte-identical: re-columnarizing the generic shuffle output with the
        # fast path's dtypes reproduces the fast path's buffers bit for bit
        raw_k, raw_v, kdt, vdt = raw
        ref = KVBatch.from_pairs(g_shuf, key_dtype=np.dtype(kdt), value_dtype=np.dtype(vdt))
        assert ref.keys.tobytes() == raw_k
        assert ref.values.tobytes() == raw_v
    for g_perf, c_perf in zip(generic_slots, columnar_slots):
        assert g_perf.records_moved == c_perf.records_moved


@pytest.mark.parametrize("combiner_name", sorted(COMBINERS))
def test_engine_combine_columnar_equals_generic(combiner_name):
    rng = np.random.default_rng(42)
    keys = rng.integers(0, 40, 2500)
    values = rng.integers(0, 1000, 2500)
    combiner = COMBINERS[combiner_name]

    def program(comm, use_batch):
        eng = MRMPIEngine(comm)
        kv = (
            KVBatch(keys, values)
            if use_batch
            else list(zip(keys.tolist(), values.tolist()))
        )
        out = eng.combine(kv, combiner)
        return out.pairs() if isinstance(out, KVBatch) else list(out)

    generic = run_mpi(program, 1, args=(False,)).results[0]
    columnar = run_mpi(program, 1, args=(True,)).results[0]
    assert [k for k, _ in columnar] == [k for k, _ in generic]
    assert [float(v) for _, v in columnar] == pytest.approx(
        [float(v) for _, v in generic]
    )


def test_engine_sort_local_columnar():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 25, 1000)
    values = np.arange(1000)

    def program(comm, descending):
        eng = MRMPIEngine(comm)
        batch = eng.sort_local(KVBatch(keys, values), descending=descending)
        pairs = eng.sort_local(
            list(zip(keys.tolist(), values.tolist())), descending=descending
        )
        return batch.pairs(), pairs

    for descending in (False, True):
        got, want = run_mpi(program, 1, args=(descending,)).results[0]
        assert got == want


def test_engine_run_job_accepts_batches():
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 30, 2000)

    def program(comm):
        eng = MRMPIEngine(comm)
        lo, hi = _block_slice(len(keys), comm.rank, comm.size)
        out = eng.run_job(
            KVBatch(keys[lo:hi], np.ones(hi - lo, dtype=np.int64)),
            None,
            COMBINERS["count"],
            num_reducers=comm.size,
            sort_keys=True,
        )
        return out.pairs() if isinstance(out, KVBatch) else list(out)

    merged = [pair for r in run_mpi(program, 4).results for pair in r]
    ref: dict = {}
    for k in keys.tolist():
        ref[k] = ref.get(k, 0) + 1
    assert dict(merged) == ref
    assert sum(v for _, v in merged) == len(keys)


# -- layer 3: the case-study workflows ---------------------------------------


def _cluster_for(ranks):
    if ranks == 1:
        return ClusterModel(num_nodes=1, ranks_per_node=1, network=INFINIBAND_QDR)
    return ClusterModel(num_nodes=ranks // 2, ranks_per_node=2, network=INFINIBAND_QDR)


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


@pytest.fixture(scope="module")
def blast_data():
    db = generate_database("env_nr", num_sequences=1000, seed=21)
    return Dataset.from_array(BLAST_INDEX_SCHEMA, build_index(db))


@pytest.fixture(scope="module")
def graph_data():
    return generate_graph("google", scale=0.002, seed=13).to_dataset()


def _case_args(case):
    if case == "blast":
        return BLAST_WORKFLOW_XML, {
            "input_path": "/in", "output_path": "/out", "num_partitions": 8,
        }
    return HYBRID_CUT_WORKFLOW_XML, {
        "input_file": "/in", "output_path": "/out",
        "num_partitions": 8, "threshold": 30,
    }


@pytest.mark.parametrize("backend", ["mpi", "mapreduce"])
@pytest.mark.parametrize("ranks", [1, 4, 8])
@pytest.mark.parametrize("case", ["blast", "hybrid"])
def test_workflows_bucketize_equals_scans(
    papar, blast_data, graph_data, backend, ranks, case, monkeypatch
):
    workflow, args = _case_args(case)
    data = blast_data if case == "blast" else graph_data

    fast = papar.run(workflow, args, data=data, backend=backend,
                     num_ranks=ranks, cluster=_cluster_for(ranks))
    # both backends run the one rank program in repro.core.runtime
    monkeypatch.setattr(runtime_mod, "bucketize", scan_bucketize)
    slow = papar.run(workflow, args, data=data, backend=backend,
                     num_ranks=ranks, cluster=_cluster_for(ranks))

    assert fast.num_partitions == slow.num_partitions == 8
    for ours, theirs in zip(fast.partitions, slow.partitions):
        np.testing.assert_array_equal(ours.to_flat().records, theirs.to_flat().records)
    assert fast.bytes_moved == slow.bytes_moved
    assert fast.messages == slow.messages
    assert fast.elapsed == pytest.approx(slow.elapsed)
    assert fast.perf["records_moved"] == slow.perf["records_moved"]
    assert fast.perf["bytes_moved"] == slow.perf["bytes_moved"]


@pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce"])
def test_perf_counters_reported(papar, blast_data, backend):
    workflow, args = _case_args("blast")
    kwargs = {} if backend == "serial" else {"num_ranks": 4, "cluster": _cluster_for(4)}
    result = papar.run(workflow, args, data=blast_data, backend=backend, **kwargs)
    perf = result.perf
    assert perf is not None
    assert set(perf) == {"records_moved", "bytes_moved", "phases"}
    assert "sort" in perf["phases"] and "distribute" in perf["phases"]
    if backend != "serial":
        # every record crosses the shuffle once for sort, once for distribute
        assert perf["records_moved"] == 2 * len(blast_data)
        assert perf["bytes_moved"] > 0
        assert perf["phases"]["sort"]["virtual_s"] > 0.0


def test_print_stats_renders(papar, blast_data, capsys):
    from repro.cli import print_stats

    workflow, args = _case_args("blast")
    result = papar.run(workflow, args, data=blast_data, backend="mpi",
                       num_ranks=4, cluster=_cluster_for(4))
    print_stats(result)
    out = capsys.readouterr().out
    assert "records moved" in out
    assert "sort" in out and "distribute" in out
