"""The columnar kernels compute exactly what their scan / dict oracles compute.

Two layers of equivalence, all seeded and randomized:

1. **Kernels** — ``bucketize`` equals the per-destination ``flatnonzero``
   scans it replaced; ``partition_array`` equals elementwise ``__call__``
   for every partitioner; columnar ``group`` equals dict grouping.
2. **Workflows** — the two case studies (muBLASTP sort->distribute,
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
    ExplicitPartitioner,
    HashPartitioner,
    KVBatch,
    PerfCounters,
    RangePartitioner,
    bucketize,
    stable_hash,
    stable_hash_array,
)
from repro.mapreduce.columnar import group as columnar_group
from repro.mapreduce.partitioner import FnPartitioner


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
    for k, v in zip(keys.tolist(), values.tolist()):
        ref.setdefault(k, []).append(v)

    def expected(group_keys):
        offsets = np.cumsum([0] + [len(ref[k]) for k in group_keys])
        flat = [v for k in group_keys for v in ref[k]]
        return group_keys, offsets.tolist(), flat

    grouped = columnar_group(batch, order="first-seen")
    got = grouped.keys.tolist(), grouped.offsets.tolist(), grouped.values.tolist()
    assert got == expected(list(ref))
    by_key = columnar_group(batch, order="key")
    got = by_key.keys.tolist(), by_key.offsets.tolist(), by_key.values.tolist()
    assert got == expected(sorted(ref))


def test_perf_counters_merge_semantics():
    a, b = PerfCounters(), PerfCounters()
    a.count_move(10, 100)
    b.count_move(5, 50)
    a.phases["sort"] = [1.0, 2.0]
    b.phases["sort"] = [3.0, 1.5]
    total = PerfCounters.merge_ranks([a, None, b])
    assert total.records_moved == 15
    assert total.bytes_moved == 150
    # wall and virtual time both take the max over ranks (the makespan)
    assert total.phases["sort"] == [3.0, 2.0]
    assert total.summary()["phases"]["sort"] == {"wall_s": 3.0, "virtual_s": 2.0}


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
    assert set(perf) == {"records_moved", "bytes_moved", "phases", "paths"}
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


def test_print_stats_prints_simulated_time_only_when_simulated(papar, blast_data, capsys):
    """Without a cluster model (every CLI run) no clock ran: no simulated
    seconds and no virtual(s) column; with one, both."""
    from repro.cli import print_stats

    workflow, args = _case_args("blast")
    for backend, kwargs in (("serial", {}), ("mpi", {"num_ranks": 4})):
        print_stats(papar.run(workflow, args, data=blast_data, backend=backend, **kwargs))
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" messages") and "simulated" not in lines[0]
        assert lines[1].split() == ["phase", "wall(s)"]
    result = papar.run(workflow, args, data=blast_data, backend="mpi",
                       num_ranks=4, cluster=_cluster_for(4))
    print_stats(result)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f", {result.elapsed:.6f} s simulated") and result.elapsed > 0
    assert lines[1].split() == ["phase", "wall(s)", "virtual(s)"]
