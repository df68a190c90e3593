"""Hadoop-style engine: disk shuffle, counters, job chaining, Figure 9 flow.

The engine is the backend ablation's (``benchmarks/_hadoop.py``), loaded
from the benchmarks directory by path.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import MapReduceError
from repro.mapreduce import ExplicitPartitioner, HashPartitioner, RangePartitioner

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _hadoop import HadoopCluster, InputSplit, ListInputFormat, identity_reduce
    from apps.blast import mublastp_partition
finally:
    sys.path.pop(0)

WORDS = "the quick brown fox jumps over the lazy dog the end".split()


def word_map(word, emit):
    emit(word, 1)


def sum_reduce(key, values, emit):
    emit(key, sum(values))


@pytest.fixture
def cluster(tmp_path):
    return HadoopCluster(tmp_path / "hadoop", num_mappers=3)


class TestWordCount:
    def test_matches_reference(self, cluster):
        result = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=2
        )
        assert dict(result.read_output()) == dict(Counter(WORDS))

    def test_counters(self, cluster):
        result = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=2
        )
        c = result.counters
        assert c.map_tasks == 3
        assert c.reduce_tasks == 2
        assert c.map_input_records == len(WORDS)
        assert c.map_output_records == len(WORDS)
        assert c.reduce_output_records == len(set(WORDS))
        assert c.spilled_bytes > 0

    def test_part_files_on_disk(self, cluster):
        result = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=4
        )
        assert len(result.part_files) == 4
        import os

        assert all(os.path.exists(p) for p in result.part_files)


class TestValidation:
    def test_bad_mappers(self, tmp_path):
        with pytest.raises(MapReduceError):
            HadoopCluster(tmp_path, num_mappers=0)

    def test_bad_reducers(self, cluster):
        with pytest.raises(MapReduceError):
            cluster.run_job(ListInputFormat([1]), word_map, sum_reduce, num_reducers=0)

    def test_partitioner_reducer_mismatch(self, cluster):
        with pytest.raises(MapReduceError, match="reducers"):
            cluster.run_job(
                ListInputFormat([1]),
                word_map,
                sum_reduce,
                partitioner=HashPartitioner(2),
                num_reducers=5,
            )


class TestFigure9Flow:
    """The muBLASTP sort + distribute workflow as two chained Hadoop jobs."""

    ROWS = [
        (0, 94, 0, 74),
        (94, 192, 74, 89),
        (286, 99, 163, 109),
        (385, 91, 272, 107),
        (476, 90, 379, 111),
        (566, 51, 490, 120),
        (617, 72, 610, 118),
        (689, 94, 728, 71),
        (783, 64, 799, 91),
        (847, 99, 890, 113),
        (946, 95, 1003, 104),
        (1041, 79, 1107, 76),
    ]

    def test_sort_then_distribute(self, cluster):
        # job 1 (sort): key = seq_size, range partitioner from sampled keys,
        # reducers sort and strip the reduce-key
        keys = sorted(r[1] for r in self.ROWS)
        boundaries = [keys[len(keys) // 3], keys[2 * len(keys) // 3]]

        def sort_map(row, emit):
            emit(row[1], row)

        sort_result = cluster.run_job(
            ListInputFormat(self.ROWS),
            sort_map,
            identity_reduce,
            partitioner=RangePartitioner(boundaries, 3),
            num_reducers=3,
            sort_keys=True,
            job_name="sort",
        )
        sorted_rows = [v for _, v in sort_result.read_output()]
        assert [r[1] for r in sorted_rows] == sorted(r[1] for r in self.ROWS)

        # job 2 (distribute): the partition id is the temporary reduce-key
        enumerated = list(enumerate(sorted_rows))

        def distr_map(item, emit):
            idx, row = item
            emit(idx % 3, row)

        distr_result = cluster.run_job(
            ListInputFormat(enumerated),
            distr_map,
            identity_reduce,
            partitioner=ExplicitPartitioner(3),
            num_reducers=3,
            job_name="distribute",
        )
        # compare with the reference muBLASTP cyclic partitioner
        from repro.formats import BLAST_INDEX_SCHEMA

        index = BLAST_INDEX_SCHEMA.to_structured(self.ROWS)
        expected = mublastp_partition(index, 3, policy="cyclic")
        for reducer, part_file in enumerate(distr_result.part_files):
            import pickle

            with open(part_file, "rb") as fh:
                rows = [tuple(v) for _, v in pickle.load(fh)]
            assert rows == [tuple(r) for r in expected[reducer]]


class TestChaining:
    def test_chain_input(self, cluster):
        first = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=2
        )

        def invert_map(item, emit):
            word, count = item
            emit(count, word)

        def collect_reduce(key, values, emit):
            emit(key, sorted(values))

        second = cluster.run_job(
            cluster.chain_input(first), invert_map, collect_reduce, num_reducers=2
        )
        by_count = dict(second.read_output())
        assert sorted(by_count[3]) == ["the"]
        assert set(by_count[1]) >= {"brown", "dog", "end"}

    def test_cleanup(self, tmp_path):
        cluster = HadoopCluster(tmp_path / "h2", num_mappers=2)
        cluster.run_job(ListInputFormat([1, 2]), word_map, sum_reduce, num_reducers=1)
        cluster.cleanup()
        import os

        assert not os.path.exists(tmp_path / "h2")


class TestHadoopShim:
    def test_list_input_format_splits_evenly(self):
        fmt = ListInputFormat(list(range(10)))
        splits = fmt.get_splits(3)
        assert [s.length for s in splits] == [4, 3, 3]
        assert [list(fmt.get_record_reader(s)) for s in splits] == [
            [0, 1, 2, 3],
            [4, 5, 6],
            [7, 8, 9],
        ]

    def test_splits_cover_everything(self):
        fmt = ListInputFormat(list(range(17)))
        splits = fmt.get_splits(5)
        assert len(splits) == 5
        seen = [r for split in splits for r in fmt.get_record_reader(split)]
        assert seen == list(range(17))

    def test_invalid_split_rejected(self):
        with pytest.raises(MapReduceError):
            InputSplit(source=None, start=-1, length=2)

    def test_zero_splits_rejected(self):
        with pytest.raises(MapReduceError):
            ListInputFormat([1]).get_splits(0)
