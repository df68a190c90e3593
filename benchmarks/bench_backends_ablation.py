"""Backend ablation — one formalization, three mappings.

The paper maps PaPar onto Hadoop, MR-MPI, and raw MPI (Section III-D).
This bench runs the muBLASTP workflow through this repo's counterparts —
the serial reference, the raw-MPI runtime, and the MapReduce runtime —
checks the partitions are identical, and records each backend's simulated
time and shuffle traffic.  The Hadoop-style disk engine is exercised on the
equivalent two-job flow.
"""

import numpy as np
import pytest

from repro import PaPar
from repro.bench import Experiment, shape
from repro.blast import generate_index
from repro.cluster import ClusterModel, INFINIBAND_QDR
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA

N = 200_000
RANKS = 8
ARGS = {"input_path": "/in", "output_path": "/out", "num_partitions": 8}


@pytest.fixture(scope="module")
def data():
    return Dataset.from_array(
        BLAST_INDEX_SCHEMA, generate_index("env_nr", num_sequences=N, seed=51)
    )


def run_backends(data):
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    cluster = ClusterModel(num_nodes=4, ranks_per_node=2, network=INFINIBAND_QDR)
    exp = Experiment("Backend ablation", "muBLASTP workflow on the three backends")
    outputs = {}
    for backend in ("serial", "mpi", "mapreduce"):
        kwargs = {} if backend == "serial" else {"num_ranks": RANKS, "cluster": cluster}
        result = papar.run(BLAST_WORKFLOW_XML, ARGS, data=data, backend=backend, **kwargs)
        outputs[backend] = [p.rows() for p in result.partitions]
        exp.add(
            backend=backend,
            ranks=1 if backend == "serial" else RANKS,
            virtual_s=result.elapsed,
            bytes_moved=result.bytes_moved,
            messages=result.messages,
        )
    identical = outputs["mpi"] == outputs["serial"] and outputs["mapreduce"] == outputs["serial"]
    exp.note(f"partitions identical across backends: {identical}")
    return exp, identical


def test_backend_ablation(benchmark, data, reporter):
    exp, identical = benchmark.pedantic(run_backends, args=(data,), rounds=1, iterations=1)
    reporter.record(exp)
    shape(identical, "all backends produce identical partitions")


def run_fused_ablation(data):
    """The fused-exchange workload (sort -> sort -> distribute), plain vs
    ``optimize=True``, on every backend: same partitions, fewer bytes."""
    from bench_optimizer import FUSED_WORKFLOW_XML, shuffle_payload

    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    cluster = ClusterModel(num_nodes=4, ranks_per_node=2, network=INFINIBAND_QDR)
    exp = Experiment(
        "Fused-exchange ablation",
        "redundant sort removed by the optimizer, per backend",
    )
    identical = True
    for backend in ("serial", "mpi", "mapreduce"):
        kwargs = {} if backend == "serial" else {"num_ranks": RANKS, "cluster": cluster}
        plain = papar.run(FUSED_WORKFLOW_XML, ARGS, data=data, backend=backend, **kwargs)
        optimized = papar.run(
            FUSED_WORKFLOW_XML, ARGS, data=data, backend=backend, optimize=True, **kwargs
        )
        for ours, theirs in zip(optimized.partitions, plain.partitions):
            identical &= bool(np.array_equal(ours.records, theirs.records))
        summary = optimized.extra["optimizer"]
        exp.add(
            backend=backend,
            ranks=1 if backend == "serial" else RANKS,
            bytes_moved_plain=shuffle_payload(plain),
            bytes_moved_optimized=summary["measured_bytes_moved"],
            exchanges_removed=summary["exchanges_removed"],
        )
    exp.note(f"optimized partitions identical to plain: {identical}")
    return exp, identical


def test_fused_exchange_ablation(benchmark, data, reporter):
    exp, identical = benchmark.pedantic(
        run_fused_ablation, args=(data,), rounds=1, iterations=1
    )
    reporter.record(exp)
    shape(identical, "optimize=True is bit-identical on every backend")


def test_hadoop_engine_flow(benchmark, reporter):
    """The same sort+distribute flow through the disk-shuffle Hadoop engine."""
    from repro.blast import mublastp_partition
    from repro.mapreduce import ExplicitPartitioner, RangePartitioner
    from repro.mapreduce.engine import identity_reduce
    from repro.mapreduce.hadoop import ListInputFormat
    from repro.mapreduce.hadoop_engine import HadoopCluster

    import tempfile

    index = generate_index("env_nr", num_sequences=5_000, seed=52)
    rows = [tuple(r) for r in index]

    def run():
        with tempfile.TemporaryDirectory() as work:
            cluster = HadoopCluster(work, num_mappers=4)
            keys = sorted(r[1] for r in rows)
            boundaries = [keys[i * len(keys) // 4] for i in range(1, 4)]
            sort_out = cluster.run_job(
                ListInputFormat(rows),
                lambda row, emit: emit(row[1], row),
                identity_reduce,
                partitioner=RangePartitioner(boundaries, 4),
                num_reducers=4,
                sort_keys=True,
                job_name="sort",
            )
            sorted_rows = [v for _, v in sort_out.read_output()]
            distr_out = cluster.run_job(
                ListInputFormat(list(enumerate(sorted_rows))),
                lambda item, emit: emit(item[0] % 8, item[1]),
                identity_reduce,
                partitioner=ExplicitPartitioner(8),
                num_reducers=8,
                job_name="distribute",
            )
            parts = []
            import pickle

            for pf in distr_out.part_files:
                with open(pf, "rb") as fh:
                    parts.append([tuple(v) for _, v in pickle.load(fh)])
            spilled = sort_out.counters.spilled_bytes + distr_out.counters.spilled_bytes
            return parts, spilled

    parts, spilled = benchmark.pedantic(run, rounds=1, iterations=1)
    expected = mublastp_partition(index, 8, policy="cyclic")
    for got, want in zip(parts, expected):
        assert got == [tuple(r) for r in want]
    exp = Experiment("Hadoop engine check", "disk-shuffle flow equals the reference")
    exp.add(records=len(rows), partitions=8, spilled_bytes=spilled, identical=True)
    reporter.record(exp)
