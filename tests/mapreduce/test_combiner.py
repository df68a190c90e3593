"""Map-side combiners of the backend ablation's Hadoop engine
(``benchmarks/_hadoop.py``, loaded by path): same results, smaller shuffle."""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _hadoop import HadoopCluster, ListInputFormat
finally:
    sys.path.pop(0)

WORDS = ("a b c a b a a b c d " * 50).split()


def word_map(word, emit):
    emit(word, 1)


def sum_reduce(key, values, emit):
    emit(key, sum(values))


class TestHadoopCombiner:
    def test_results_unchanged(self, tmp_path):
        cluster = HadoopCluster(tmp_path / "h", num_mappers=3)
        result = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=2,
            combiner=sum_reduce,
        )
        assert dict(result.read_output()) == dict(Counter(WORDS))

    def test_spill_bytes_reduced(self, tmp_path):
        cluster = HadoopCluster(tmp_path / "h2", num_mappers=3)
        plain = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=2
        )
        combined = cluster.run_job(
            ListInputFormat(WORDS), word_map, sum_reduce, num_reducers=2,
            combiner=sum_reduce,
        )
        assert combined.counters.spilled_bytes < plain.counters.spilled_bytes / 5
