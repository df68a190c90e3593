"""The two-hit seeding heuristic of the search kernel."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import (
        PartitionIndex,
        build_index,
        extract_partition,
        generate_database,
        make_batch,
        mublastp_partition,
    )
    from apps.blast.scoring import BLOSUM62
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def db():
    return generate_database("env_nr", num_sequences=200, seed=33)


class TestTwoHit:
    def test_fewer_extensions_than_one_hit(self, db):
        index = PartitionIndex(db)
        query = db.sequence(10).copy()
        one = index.search(query, two_hit=False)
        two = index.search(query, two_hit=True)
        assert two.extension_columns < one.extension_columns
        # raw hit counting is unchanged (seeding differs, scanning does not)
        assert two.num_hits == one.num_hits

    def test_self_match_still_found(self, db):
        """A true alignment produces many same-diagonal hits, so the two-hit
        filter must not lose the self match."""
        index = PartitionIndex(db)
        # pick a reasonably long sequence so the self-diagonal has >= 2 hits
        i = int(np.argmax(db.seq_size))
        query = db.sequence(i).copy()
        result = index.search(query, two_hit=True)
        self_score = int(BLOSUM62[query, query].sum())
        assert result.best_score >= self_score * 0.3

    def test_window_zero_blocks_everything(self, db):
        index = PartitionIndex(db)
        query = db.sequence(5).copy()
        # window smaller than the word size can never satisfy the two-hit rule
        result = index.search(query, two_hit=True, window=1)
        assert result.extension_columns == 0

    def test_two_hit_makespan_ordering_preserved(self, db):
        """Cyclic still beats block under the two-hit cost profile."""
        db2 = generate_database("nr", num_sequences=400, seed=34, length_clustering=0.95)
        index = build_index(db2)
        queries = make_batch(db2, "mixed", batch_size=6, seed=1)

        def makespan(policy):
            parts = [
                extract_partition(db2, p) for p in mublastp_partition(index, 6, policy)
            ]
            times = []
            for part in parts:
                pidx = PartitionIndex(part)
                total = 0.0
                for q in queries:
                    total += pidx.search(q, two_hit=True).modeled_seconds
                times.append(total)
            return max(times)

        assert makespan("cyclic") < makespan("block")
