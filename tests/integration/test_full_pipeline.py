"""End-to-end acceptance: the complete muBLASTP story through every layer.

Sequence database -> binary index file -> CLI-driven PaPar partitioning ->
partition extraction with pointer recalculation -> search with e-value
reporting — one test that touches every public layer the way a downstream
user would.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA, read_binary, write_binary

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import (
        INDEX_HEADER,
        PartitionIndex,
        build_index,
        extract_partition,
        generate_database,
        make_batch,
        mublastp_partition,
    )
finally:
    sys.path.pop(0)

NUM_PARTITIONS = 4


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once; tests inspect its stages."""
    tmp = tmp_path_factory.mktemp("pipeline")

    # 1. formatdb equivalent: write the database's binary four-tuple index
    db = generate_database("env_nr", num_sequences=150, seed=99, length_clustering=0.9)
    index_path = tmp / "db.index"
    write_binary(index_path, build_index(db), BLAST_INDEX_SCHEMA, header=INDEX_HEADER)

    # 2. partition through the CLI (configuration files in, part files out)
    cfg_input = tmp / "blast_db.xml"
    cfg_input.write_text(BLAST_INPUT_XML)
    cfg_wf = tmp / "workflow.xml"
    cfg_wf.write_text(BLAST_WORKFLOW_XML)
    out_dir = tmp / "partitions"
    rc = main([
        "run",
        "--input-config", str(cfg_input),
        "--workflow", str(cfg_wf),
        "--arg", f"input_path={index_path}",
        "--arg", f"output_path={out_dir}",
        "--arg", f"num_partitions={NUM_PARTITIONS}",
        "--backend", "mpi", "--ranks", "2",
    ])
    assert rc == 0

    # 3. load the partition index files back and materialize the databases
    part_indexes = [
        read_binary(out_dir / f"part-{p:05d}", BLAST_INDEX_SCHEMA)
        for p in range(NUM_PARTITIONS)
    ]
    part_dbs = [extract_partition(db, idx) for idx in part_indexes]
    return db, part_indexes, part_dbs


class TestFullPipeline:
    def test_cli_partitions_equal_native_partitioner(self, pipeline):
        db, part_indexes, _ = pipeline
        native = mublastp_partition(build_index(db), NUM_PARTITIONS, policy="cyclic")
        for got, want in zip(part_indexes, native):
            np.testing.assert_array_equal(got, want)

    def test_partitions_cover_every_sequence(self, pipeline):
        db, _, part_dbs = pipeline
        total = sum(p.num_sequences for p in part_dbs)
        assert total == db.num_sequences
        assert sum(p.total_residues for p in part_dbs) == db.total_residues

    def test_partition_pointers_rebased(self, pipeline):
        _, _, part_dbs = pipeline
        for part in part_dbs:
            assert part.seq_start[0] == 0
            ends = part.seq_start + part.seq_size
            np.testing.assert_array_equal(part.seq_start[1:], ends[:-1])

    def test_search_finds_query_in_owning_partition(self, pipeline):
        db, _, part_dbs = pipeline
        queries = make_batch(db, "mixed", batch_size=3, seed=2)
        whole = PartitionIndex(db)
        for query in queries:
            # the query came from db: the partition holding its sequence
            # reports the best hit the whole database holds
            best = None
            for part in part_dbs:
                index = PartitionIndex(part)
                result = index.search(query)
                if best is None or result.best_score > best.best_score:
                    best = result
            assert best is not None
            assert best.best_score == whole.search(query).best_score > 0
