#!/usr/bin/env python
"""muBLASTP database partitioning end to end (paper Sections II-A, IV-B).

Builds a synthetic protein database, partitions its four-tuple index with
the PaPar-generated workflow (Figure 8: sort by encoded sequence length +
cyclic distribution), verifies the partitions equal muBLASTP's own
partitioner, rebases the index pointers (the user-defined add-on of Section
III-C), and demonstrates the Figure 12 effect: cyclic partitioning balances
search makespan, block partitioning does not.

Run:  python examples/blast_partitioning.py
"""

import sys
from pathlib import Path

import numpy as np

from repro import PaPar
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
try:
    from apps.blast import (
        build_index,
        extract_partition,
        generate_database,
        make_batch,
        mublastp_partition,
        partition_makespan,
        recalculate_pointers,
    )
finally:
    sys.path.pop(0)

NUM_SEQUENCES = 1200
NUM_PARTITIONS = 8


def main() -> None:
    db = generate_database(
        "nr", num_sequences=NUM_SEQUENCES, seed=3, length_clustering=0.9
    )
    index = build_index(db)
    print(
        f"database: {db.num_sequences} sequences, {db.total_residues} residues, "
        f"median length {int(np.median(db.seq_size))}"
    )

    # -- partition through PaPar (Figure 8 workflow) ------------------------
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    result = papar.run(
        BLAST_WORKFLOW_XML,
        {"input_path": "/in", "output_path": "/out", "num_partitions": NUM_PARTITIONS},
        data=Dataset.from_array(BLAST_INDEX_SCHEMA, index),
        backend="mpi",
        num_ranks=4,
    )
    print(f"PaPar produced {result.num_partitions} partitions on 4 simulated ranks")

    # -- same partitions as the application's own method ----------------------
    native = mublastp_partition(index, NUM_PARTITIONS, policy="cyclic")
    for ours, theirs in zip(result.partitions, native):
        np.testing.assert_array_equal(ours.records, theirs)
    print("partitions are identical to muBLASTP's own partitioner")

    # -- the pointer-recalculation add-on -------------------------------------
    rebased = recalculate_pointers(result.partitions[0].records)
    print(
        f"partition 0 pointers rebased: first seq_start {rebased['seq_start'][0]}, "
        f"sizes preserved: {np.array_equal(rebased['seq_size'], result.partitions[0].records['seq_size'])}"
    )

    # -- the Figure 12 effect: search makespan under cyclic vs block -----------
    queries = make_batch(db, "mixed", batch_size=10, seed=1)
    for policy in ("cyclic", "block"):
        parts_idx = mublastp_partition(index, NUM_PARTITIONS, policy=policy)
        parts_db = [extract_partition(db, p) for p in parts_idx]
        makespan, times = partition_makespan(parts_db, queries)
        imbalance = max(times) / (sum(times) / len(times))
        print(
            f"{policy:6s}: makespan {makespan * 1e3:.3f} ms, "
            f"partition imbalance {imbalance:.2f}x"
        )
    print("cyclic balances the per-partition search load; block inherits the skew")


if __name__ == "__main__":
    main()
