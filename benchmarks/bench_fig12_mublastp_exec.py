"""Figure 12 — muBLASTP search time: cyclic vs block partitioning.

Normalized execution time of the (simplified) BLASTP search for three query
batches on 8 and 16 nodes (16 and 32 partitions — one MPI rank per socket),
for env_nr-like and nr-like synthetic databases.  The paper's claims:

* cyclic is the clear winner for every database/batch combination;
* the benefit grows with the batch ("500" > "100") because longer queries
  amplify the length skew;
* the skew is stronger on nr (heavier length tail).
"""

import pytest

from _harness import Experiment, shape
from apps.blast import (
    build_index,
    extract_partition,
    generate_database,
    make_batch,
    mublastp_partition,
    partition_makespan,
)

#: scaled database sizes (full nr is 85M sequences; shapes, not volume)
DB_SIZES = {"env_nr": 1600, "nr": 2400}
BATCH_SIZE = 16
NODES = (8, 16)


@pytest.fixture(scope="module")
def databases():
    return {
        profile: generate_database(
            profile, num_sequences=size, seed=31, length_clustering=0.9
        )
        for profile, size in DB_SIZES.items()
    }


def run_figure12(databases):
    exp = Experiment(
        "Figure 12", "muBLASTP search time, block normalized to cyclic (>1 = cyclic wins)"
    )
    ratios = {}
    for profile, db in databases.items():
        index = build_index(db)
        for nodes in NODES:
            num_partitions = nodes * 2  # one MPI rank per socket
            parts_db = {}
            for policy in ("cyclic", "block"):
                parts_idx = mublastp_partition(index, num_partitions, policy=policy)
                parts_db[policy] = [extract_partition(db, p) for p in parts_idx]
            for kind in ("100", "500", "mixed"):
                queries = make_batch(db, kind, batch_size=BATCH_SIZE, seed=7)
                makespans = {
                    policy: partition_makespan(parts_db[policy], queries)[0]
                    for policy in ("cyclic", "block")
                }
                ratio = makespans["block"] / makespans["cyclic"]
                ratios[(profile, nodes, kind)] = ratio
                exp.add(
                    database=profile,
                    nodes=nodes,
                    partitions=num_partitions,
                    batch=kind,
                    cyclic_s=makespans["cyclic"],
                    block_s=makespans["block"],
                    block_over_cyclic=ratio,
                )
    exp.note("paper: cyclic wins every combination; larger batches benefit more")
    return exp, ratios


def test_figure12_cyclic_vs_block(benchmark, databases, reporter):
    exp, ratios = benchmark.pedantic(run_figure12, args=(databases,), rounds=1, iterations=1)
    reporter.record(exp)

    # cyclic is the clear winner in every combination
    for key, ratio in ratios.items():
        shape(ratio > 1.0, f"cyclic beats block for {key} (ratio {ratio:.2f})")

    # longer queries amplify the benefit on env_nr (paper's secondary claim);
    # at our scaled size nr inverts this ordering because its extreme length
    # tail already dominates the makespan for short queries — recorded as a
    # deviation in EXPERIMENTS.md
    for nodes in NODES:
        shape(
            ratios[("env_nr", nodes, "500")] >= ratios[("env_nr", nodes, "100")],
            f"env_nr, {nodes} nodes: batch 500 benefits at least as much as batch 100",
        )


def test_search_kernel(benchmark, databases):
    """Kernel timing: one mixed batch against one cyclic partition."""
    from apps.blast import PartitionIndex

    db = databases["env_nr"]
    index = build_index(db)
    part = extract_partition(db, mublastp_partition(index, 16, "cyclic")[0])
    pidx = PartitionIndex(part)
    queries = make_batch(db, "100", batch_size=4, seed=3)
    result = benchmark(pidx.search_batch, queries)
    assert result.work > 0
