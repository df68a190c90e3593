"""muBLASTP partitioners, the search kernel, and the Figure 12 skew effect."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.model import CostModel
from repro.errors import PaParError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import (
        PartitionIndex,
        baseline_partition_time,
        build_index,
        encode,
        extract_partition,
        generate_database,
        make_batch,
        mublastp_partition,
        partition_makespan,
    )
    from apps.blast.scoring import ALPHABET, BLOSUM62
finally:
    sys.path.pop(0)


def balance(values) -> float:
    """Max/mean ratio over the partitions (1.0 = perfect)."""
    values = np.asarray(values, dtype=np.float64)
    return float(values.max() / values.mean())


def count_balance(parts) -> float:
    return balance([len(p) for p in parts])


def size_balance(parts) -> float:
    return balance([p["seq_size"].sum() for p in parts])


def length_mixing(parts) -> float:
    """How uniformly lengths spread: max/mean of the partitions' mean lengths."""
    return balance([p["seq_size"].mean() for p in parts])


@pytest.fixture(scope="module")
def db():
    return generate_database("env_nr", num_sequences=400, seed=5)


@pytest.fixture(scope="module")
def index(db):
    return build_index(db)


class TestScoring:
    def test_blosum62_symmetric(self):
        np.testing.assert_array_equal(BLOSUM62, BLOSUM62.T)

    def test_blosum62_diagonal_positive(self):
        diag = np.diag(BLOSUM62)[:20]
        assert (diag > 0).all()
        assert BLOSUM62[ALPHABET.index("W"), ALPHABET.index("W")] == 11

    def test_known_values(self):
        a, r = ALPHABET.index("A"), ALPHABET.index("R")
        assert BLOSUM62[a, a] == 4
        assert BLOSUM62[a, r] == -1

    def test_encode_decode_roundtrip(self):
        seq = "MKVLAARNDW"
        assert "".join(ALPHABET[c] for c in encode(seq)) == seq

    def test_encode_rejects_unknown(self):
        with pytest.raises(PaParError):
            encode("MKB1")


class TestMuBlastpPartition:
    def test_cyclic_matches_paper_goals(self, index):
        parts = mublastp_partition(index, 8, policy="cyclic")
        assert count_balance(parts) <= 1.01  # goal 1: similar counts
        assert size_balance(parts) < 1.1  # goal 3: similar encoded sizes
        assert length_mixing(parts) < 1.1  # goal 2: similar length profiles

    def test_block_keeps_input_order(self, index):
        parts = mublastp_partition(index, 4, policy="block")
        reassembled = np.concatenate(parts)
        np.testing.assert_array_equal(reassembled, index)

    def test_cyclic_covers_all_sequences(self, index):
        parts = mublastp_partition(index, 5, policy="cyclic")
        got = sorted(int(s) for p in parts for s in p["seq_start"])
        assert got == sorted(int(s) for s in index["seq_start"])

    def test_block_skews_on_clustered_database(self):
        """The default method inherits the database's length clustering."""
        db = generate_database("nr", num_sequences=2000, seed=7, length_clustering=0.95)
        index = build_index(db)
        block = mublastp_partition(index, 8, policy="block")
        cyclic = mublastp_partition(index, 8, policy="cyclic")
        assert length_mixing(block) > length_mixing(cyclic) * 1.2
        assert size_balance(block) > size_balance(cyclic)

    def test_unknown_policy(self, index):
        with pytest.raises(PaParError):
            mublastp_partition(index, 4, policy="zigzag")

    def test_baseline_time_scales_with_threads(self):
        t1 = baseline_partition_time(1 << 20, threads=1)
        t16 = baseline_partition_time(1 << 20, threads=16)
        assert t16 < t1
        assert t1 / t16 <= 16

    def test_baseline_time_monotone_in_size(self):
        cost = CostModel()
        assert baseline_partition_time(1 << 22, cost=cost) > baseline_partition_time(
            1 << 18, cost=cost
        )


class TestSearchKernel:
    def test_exact_self_match_found(self, db):
        index = PartitionIndex(db)
        query = db.sequence(3).copy()
        result = index.search(query)
        assert result.num_hits > 0
        # self-alignment score is at least the sum of diagonal BLOSUM values
        self_score = int(BLOSUM62[query, query].sum())
        assert result.best_score >= self_score * 0.5

    def test_no_hits_for_impossible_query(self):
        db = generate_database("env_nr", num_sequences=20, seed=8)
        index = PartitionIndex(db)
        # all-tryptophan query: W runs are vanishingly rare in random data
        query = encode("W" * 30)
        result = index.search(query)
        assert result.extension_columns >= 0  # well-formed even with few hits

    def test_work_grows_with_database_size(self):
        small = generate_database("env_nr", num_sequences=50, seed=9)
        large = generate_database("env_nr", num_sequences=500, seed=9)
        query = small.sequence(0).copy()
        w_small = PartitionIndex(small).search(query).work
        w_large = PartitionIndex(large).search(query).work
        assert w_large > w_small

    def test_work_grows_with_query_length(self, db):
        index = PartitionIndex(db)
        lengths = db.seq_size
        short_q = db.sequence(int(np.argmin(lengths))).copy()
        long_q = db.sequence(int(np.argmax(lengths))).copy()
        assert index.search(long_q).work > index.search(short_q).work

    def test_batch_accumulates(self, db):
        index = PartitionIndex(db)
        queries = make_batch(db, "100", batch_size=5, seed=1)
        total = index.search_batch(queries)
        individual = sum((index.search(q) for q in queries), start=type(total)(0, 0, 0))
        assert total.work == individual.work

    def test_empty_partition_index(self):
        db = generate_database("env_nr", num_sequences=1, seed=0)
        sub = extract_partition(db, build_index(db)[:0])
        index = PartitionIndex(sub)
        assert index.num_kmers == 0
        result = index.search(db.sequence(0).copy())
        assert result.work == 0


class TestBatches:
    def test_batch_length_limits(self, db):
        for kind, limit in [("100", 100), ("500", 500)]:
            batch = make_batch(db, kind, batch_size=20, seed=3)
            assert all(len(q) < limit for q in batch)

    def test_mixed_unrestricted(self, db):
        batch = make_batch(db, "mixed", batch_size=20, seed=3)
        assert len(batch) == 20

    def test_unknown_kind(self, db):
        with pytest.raises(PaParError):
            make_batch(db, "1000")

    def test_deterministic(self, db):
        a = make_batch(db, "mixed", batch_size=10, seed=4)
        b = make_batch(db, "mixed", batch_size=10, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestFigure12Effect:
    """Cyclic partitioning beats block on makespan for skewed databases."""

    def test_cyclic_beats_block_makespan(self):
        db = generate_database("nr", num_sequences=600, seed=11, length_clustering=0.95)
        index = build_index(db)
        queries = make_batch(db, "mixed", batch_size=10, seed=2)
        results = {}
        for policy in ("cyclic", "block"):
            parts_idx = mublastp_partition(index, 8, policy=policy)
            parts_db = [extract_partition(db, p) for p in parts_idx]
            makespan, times = partition_makespan(parts_db, queries)
            results[policy] = (makespan, times)
        assert results["cyclic"][0] < results["block"][0]

    def test_cyclic_balances_per_partition_times_better_than_block(self):
        db = generate_database("nr", num_sequences=600, seed=11, length_clustering=0.95)
        index = build_index(db)
        queries = make_batch(db, "mixed", batch_size=10, seed=2)

        def imbalance(policy):
            parts_idx = mublastp_partition(index, 8, policy=policy)
            parts_db = [extract_partition(db, p) for p in parts_idx]
            _, times = partition_makespan(parts_db, queries)
            times = np.array(times)
            return float(times.max() / times.mean())

        assert imbalance("cyclic") < imbalance("block")
