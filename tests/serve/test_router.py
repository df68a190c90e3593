"""Router selection per workflow shape, and the vectorized routing itself."""

import numpy as np
import pytest

from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.mapreduce.sampling import quantile_boundaries
from repro.ops.sort import Sort, sort_key_array
from repro.serve import ServeError, build_router
from repro.serve.router import (
    ROUTER_SAMPLE_SIZE,
    KeyedRouter,
    PositionalRouter,
    _sampled_boundaries,
)

BLAST_ARGS = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}
EDGE_ARGS = {"input_file": "/in", "output_path": "/out",
             "num_partitions": 4, "threshold": 30}

DEAL_ONLY_XML = """\
<workflow id="deal" name="deal">
  <arguments>
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
    <param name="num_partitions" type="Integer"/>
  </arguments>
  <operators>
    <operator id="dist" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="$output_path"/>
      <param name="distrPolicy" value="cyclic"/>
      <param name="numPartitions" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""

SORT_ONLY_XML = """\
<workflow id="sortonly" name="sortonly">
  <arguments>
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/sorted"/>
      <param name="key" value="seq_size"/>
    </operator>
  </operators>
</workflow>
"""


_SORT_KEY = '<param name="key" type="KeyId" value="seq_size"/>'
DESCENDING_XML = BLAST_WORKFLOW_XML.replace(
    _SORT_KEY,
    _SORT_KEY + '\n      <param name="ascending" type="boolean" value="false"/>',
)


def blast_log(papar, n=64):
    from repro.blast import generate_index

    return [np.asarray(generate_index("env_nr", num_sequences=n, seed=5))]


class TestRouterSelection:
    def test_sort_fed_distribute_gets_a_range_router(self, papar):
        plan = papar.plan(BLAST_WORKFLOW_XML, BLAST_ARGS)
        router = build_router(
            plan, papar.schema("blast_db"), blast_log(papar), 64
        )
        assert isinstance(router, KeyedRouter)
        assert router.describe() == {"kind": "range", "partitions": 4,
                                     "key": "seq_size"}

    def test_group_fed_distribute_gets_a_hash_router(self, papar):
        plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, EDGE_ARGS)
        router = build_router(plan, papar.schema("graph_edge"), [], 0)
        assert router.kind == "hash"
        assert router.key_field is not None

    def test_bare_distribute_gets_a_positional_router(self, papar):
        plan = papar.plan(DEAL_ONLY_XML, BLAST_ARGS)
        router = build_router(plan, papar.schema("blast_db"), [], 10)
        assert isinstance(router, PositionalRouter)
        assert router.next_index == 10

    def test_sort_with_empty_log_falls_back_to_positional(self, papar):
        plan = papar.plan(BLAST_WORKFLOW_XML, BLAST_ARGS)
        router = build_router(plan, papar.schema("blast_db"), [], 0)
        assert isinstance(router, PositionalRouter)

    def test_non_distribute_tail_is_refused(self, papar):
        plan = papar.plan(SORT_ONLY_XML,
                          {"input_path": "/in", "output_path": "/out"})
        with pytest.raises(ServeError, match="ending in a distribute"):
            build_router(plan, papar.schema("blast_db"), [], 0)


class TestRouting:
    def test_range_router_routes_by_key_order(self, papar):
        plan = papar.plan(BLAST_WORKFLOW_XML, BLAST_ARGS)
        log = blast_log(papar, n=256)
        router = build_router(plan, papar.schema("blast_db"), log, 256)
        owners = router.route(log[0])
        assert owners.shape == (256,)
        assert set(np.unique(owners)) <= set(range(4))
        # larger keys never land in a lower-ranked partition
        order = np.argsort(log[0]["seq_size"], kind="stable")
        assert (np.diff(owners[order]) >= 0).all()
        key = int(log[0]["seq_size"][0])
        assert router.partition_for_key(key) == owners[0]

    def test_hash_router_is_consistent_per_key(self, papar):
        plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, EDGE_ARGS)
        schema = papar.schema("graph_edge")
        router = build_router(plan, schema, [], 0)
        batch = schema.to_structured([(5, 1), (6, 1), (5, 1), (7, 2)])
        owners = router.route(batch)
        assert owners[0] == owners[2]  # same key, same partition
        assert router.partition_for_key(1) in range(4)

    def test_positional_router_continues_the_global_index(self, papar):
        plan = papar.plan(DEAL_ONLY_XML, BLAST_ARGS)
        schema = papar.schema("blast_db")
        router = build_router(plan, schema, [], 6)
        batch = schema.to_structured([(i, 40, i, 40) for i in range(5)])
        # cyclic dealing: partition = global arrival index mod 4
        assert list(router.route(batch)) == [2, 3, 0, 1, 2]
        assert list(router.route(batch[:2])) == [3, 0]
        assert router.describe()["next_index"] == 13

    def test_missing_key_field_is_a_serve_error(self, papar):
        plan = papar.plan(BLAST_WORKFLOW_XML, BLAST_ARGS)
        router = build_router(
            plan, papar.schema("blast_db"), blast_log(papar), 64
        )
        other = np.array([(1, 2)], dtype=[("a", "i8"), ("b", "i8")])
        with pytest.raises(ServeError, match="routing key"):
            router.route(other)


class TestDescendingSort:
    """The router compares keys in the sort order (``sort_key_array``), not
    raw: negated boundaries against raw keys sent everything to the last
    partition."""

    def router(self, papar, log):
        plan = papar.plan(DESCENDING_XML, BLAST_ARGS)
        assert plan.jobs[0].operator.ascending is False
        total = sum(len(b) for b in log)
        return build_router(plan, papar.schema("blast_db"), log, total)

    def test_owners_spread_over_all_partitions_in_sort_order(self, papar):
        log = blast_log(papar, n=2000)
        router = self.router(papar, log)
        assert router.kind == "range"
        owners = router.route(log[0])
        counts = np.bincount(owners, minlength=4)
        assert (counts > 0).all(), counts
        # monotone in the (descending) sort order: larger keys come first
        order = np.argsort(sort_key_array(log[0]["seq_size"], False),
                           kind="stable")
        assert (np.diff(owners[order]) >= 0).all()
        assert owners[np.argmax(log[0]["seq_size"])] == 0

    def test_partition_for_key_agrees_with_route(self, papar):
        log = blast_log(papar, n=500)
        router = self.router(papar, log)
        owners = router.route(log[0])
        for i in range(0, 500, 37):
            key = int(log[0]["seq_size"][i])
            assert router.partition_for_key(key) == owners[i]

    def test_int32_minimum_routes_last_not_first(self, papar):
        """``-(-2**31)`` wraps back to itself in int32; widened, the
        smallest key sorts last in a descending order."""
        log = blast_log(papar, n=400)
        batch = log[0].copy()
        batch["seq_size"][0] = -2 ** 31
        router = self.router(papar, [batch])
        owners = router.route(batch)
        assert owners[0] == owners.max() == 3
        assert router.partition_for_key(-2 ** 31) == 3
        assert (np.bincount(owners, minlength=4) > 0).all()


def elementwise_boundaries(op, log_batches, num_partitions):
    """The range-boundary sampler as it was before it was vectorized: every
    key of the log in one Python list, thinned by a per-element Algorithm R."""

    def algorithm_r(items, k, rng):
        if len(items) <= k:
            return list(items)
        if isinstance(items, np.ndarray):
            return list(items[rng.choice(len(items), size=k, replace=False)])
        reservoir = list(items[:k])
        draws = rng.integers(0, np.arange(k, len(items)) + 1)
        for offset, j in enumerate(draws):
            if j < k:
                reservoir[j] = items[k + offset]
        return reservoir

    rng = np.random.default_rng(0)
    samples = []
    for batch in log_batches:
        keys = sort_key_array(np.asarray(batch[op.key]), op.ascending)
        samples.extend(algorithm_r(keys, ROUTER_SAMPLE_SIZE, rng))
    return quantile_boundaries(
        algorithm_r(samples, ROUTER_SAMPLE_SIZE, rng), num_partitions)


class TestVectorizedSampler:
    @pytest.mark.parametrize("ascending", [True, False])
    def test_boundaries_equal_the_elementwise_sampler(self, papar, ascending):
        """A log shaped like a daemon's — one big warm-start batch, then many
        small appends — so every branch runs: ``rng.choice`` on the big
        batch, small batches whole, Algorithm R over the pool."""
        from repro.blast import generate_index

        index = np.asarray(generate_index("env_nr", num_sequences=12000, seed=3))
        log = [index[:6000]] + [index[i:i + 50] for i in range(6000, 12000, 50)]
        op = Sort(key="seq_size", ascending=ascending)
        ours = _sampled_boundaries(op, log, 16)
        theirs = elementwise_boundaries(op, log, 16)
        assert ours == theirs
        assert [type(b) for b in ours] == [type(b) for b in theirs]
