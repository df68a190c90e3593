"""Router selection per workflow shape, and the vectorized routing itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.mapreduce.sampling import quantile_boundaries
from repro.ops.sort import Sort, sort_key_array
from repro.serve import ServeError, ServeState, build_router
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

    def test_a_distribute_past_a_dead_sort_gets_a_positional_router(self, papar):
        """The router follows the planned wiring, not document order: a
        distribute reading the workflow input is dealt by position."""
        xml = BLAST_WORKFLOW_XML.replace('value="$sort.outputPath"', 'value="$input_path"')
        plan = papar.plan(xml, BLAST_ARGS)
        router = build_router(plan, papar.schema("blast_db"), blast_log(papar), 64)
        assert isinstance(router, PositionalRouter)

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


class TestBoundariesFromTheLogBuffer:
    """The daemon samples its log as one buffer plus batch offsets: each
    run of batches of at most ``ROUTER_SAMPLE_SIZE`` rows is one slice, and
    only larger batches draw — the boundaries are the per-batch sampler's."""

    SIZES = [0, 1, 37, ROUTER_SAMPLE_SIZE - 1, ROUTER_SAMPLE_SIZE,
             ROUTER_SAMPLE_SIZE + 1, 3 * ROUTER_SAMPLE_SIZE]

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=7),
           ascending=st.booleans(), seed=st.integers(0, 2**16))
    def test_buffer_and_offsets_equal_the_elementwise_sampler(
        self, sizes, ascending, seed
    ):
        from repro.blast import generate_index

        index = np.asarray(generate_index("env_nr", num_sequences=sum(sizes) + 1,
                                          seed=seed))
        cuts = np.cumsum([0] + sizes)
        batches = [index[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
        state = ServeState()
        state.append_log(batches[0])
        for batch in batches[1:]:
            state.admit(batch)
        op = Sort(key="seq_size", ascending=ascending)
        theirs = (elementwise_boundaries(op, batches, 16)
                  if sum(sizes) else None)
        assert _sampled_boundaries(op, state.log, 16) == theirs
        assert _sampled_boundaries(op, batches, 16) == theirs


class TestSampleOffTheLoop:
    """A rebuild samples the log it froze on its own thread; the swap
    continues the same reservoir and generator over the tail on the loop.
    The boundaries are those of sampling the whole log at once, wherever
    the log is cut — a tail batch over ``ROUTER_SAMPLE_SIZE`` rows too."""

    SIZES = TestBoundariesFromTheLogBuffer.SIZES + [2 * ROUTER_SAMPLE_SIZE]

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=7),
           cut=st.integers(0, 7), ascending=st.booleans(), seed=st.integers(0, 2**16))
    def test_a_continued_prefix_sample_equals_the_whole_log(
        self, sizes, cut, ascending, seed
    ):
        from repro.blast import generate_index
        from repro.serve.router import KeySample
        from repro.serve.state import BatchLog

        index = np.asarray(generate_index("env_nr", num_sequences=sum(sizes) + 1,
                                          seed=seed))
        cuts = np.cumsum([0] + sizes)
        batches = [index[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
        state = ServeState()
        state.append_log(batches[0])
        for batch in batches[1:]:
            state.admit(batch)
        log = state.log
        frozen = min(cut, len(batches))
        prefix = BatchLog(log.records[: cuts[frozen]], log.ends[:frozen])
        op = Sort(key="seq_size", ascending=ascending)
        ours = KeySample(op, prefix).boundaries(log, 16)
        theirs = elementwise_boundaries(op, batches, 16) if sum(sizes) else None
        assert ours == theirs
        if theirs is not None:
            assert [type(b) for b in ours] == [type(b) for b in theirs]

    def test_the_loop_thread_draws_only_for_the_tail(self, papar, tmp_path, monkeypatch):
        """Appends land while a rebuild runs: the reservoir is fed the
        frozen log's keys on the rebuild's thread and only the tail's on
        the loop, and the router swapped in cuts where the whole log does."""
        import asyncio
        import threading

        from repro.blast import generate_index
        from repro.formats import BLAST_INDEX_SCHEMA, write_binary
        from repro.serve import router as router_module

        from tests.serve._driver import dispatch, run_scenario
        from tests.serve.conftest import rows_of

        index = np.asarray(generate_index("env_nr", num_sequences=9000, seed=11))
        write_binary(tmp_path / "db.index", index[:6000], BLAST_INDEX_SCHEMA,
                     header=b"\x00" * 32)
        args = {"input_path": str(tmp_path / "db.index"),
                "output_path": str(tmp_path / "out"), "num_partitions": 8}
        feeds = []  # (thread, keys seen before, keys fed)
        reservoir = router_module._continue_reservoir

        def recording(held, seen, keys, rng):
            feeds.append((threading.get_ident(), seen, len(keys)))
            return reservoir(held, seen, keys, rng)

        monkeypatch.setattr(router_module, "_continue_reservoir", recording)
        started, release = threading.Event(), threading.Event()

        async def scenario(server):
            loop_thread = threading.get_ident()
            rebuild = server._rebuild

            def held_rebuild(frozen):
                started.set()
                assert release.wait(timeout=30.0)
                return rebuild(frozen)

            server._rebuild = held_rebuild
            for lo in (6000, 6500):
                assert (await dispatch(server, {"op": "append",
                                                "rows": rows_of(index[lo:lo + 500])}))["ok"]
            feeds.clear()
            task = asyncio.get_running_loop().create_task(server._rebalance("test"))
            while not started.is_set():
                await asyncio.sleep(0.001)
            for lo in range(7000, 9000, 250):  # the tail: 2000 keys in 8 batches
                assert (await dispatch(server, {"op": "append",
                                                "rows": rows_of(index[lo:lo + 250])}))["ok"]
            release.set()
            await asyncio.wait_for(task, timeout=30.0)
            return loop_thread

        server, loop_thread = run_scenario(papar, BLAST_WORKFLOW_XML, args, scenario,
                                           rebalance_threshold=1e9)
        off_loop = [(seen, n) for thread, seen, n in feeds if thread != loop_thread]
        on_loop = [(seen, n) for thread, seen, n in feeds if thread == loop_thread]
        # the warm start's 6000 rows pool as a choice of ROUTER_SAMPLE_SIZE
        assert off_loop == [(0, ROUTER_SAMPLE_SIZE + 1000)]
        assert on_loop == [(ROUTER_SAMPLE_SIZE + 1000, 2000)]
        assert server.state.log_records == 9000
        op = Sort(key="seq_size")
        assert server.router.partitioner.boundaries == _sampled_boundaries(
            op, server.state.log, 8)


class TestOwnerTable:
    """A range router over integer keys looks owners up in a table of the
    partitioner's own answers: every key — below, inside and above the
    boundaries' span, the dtype's extremes included — routes as
    ``partition_array`` routes it."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from(["<i4", "<i8", "<u2", "<u4"]),
           parts=st.integers(2, 300), ascending=st.booleans())
    def test_the_table_answers_as_the_partitioner(self, data, dtype, parts, ascending):
        from repro.mapreduce.partitioner import RangePartitioner

        info = np.iinfo(dtype)
        keys = np.array(data.draw(st.lists(
            st.integers(int(info.min), int(info.max)) | st.integers(-50, 400),
            min_size=1, max_size=200).map(
                lambda ks: [k for k in ks if info.min <= k <= info.max] or [0])),
            dtype=dtype)
        lo = data.draw(st.integers(-40, 300))
        bounds = sorted(data.draw(st.lists(st.integers(lo, lo + 600),
                                           min_size=parts - 1, max_size=parts - 1)))
        batch = np.zeros(len(keys), dtype=[("seq_size", dtype), ("other", "<i4")])
        batch["seq_size"] = keys
        partitioner = RangePartitioner(bounds, parts)
        router = KeyedRouter(partitioner, "seq_size", "range", ascending=ascending)
        assert router._table is not None
        expected = partitioner.partition_array(sort_key_array(keys, ascending))
        owners = router.route(batch)
        assert owners.dtype == (np.uint8 if parts <= 256 else np.int64)
        np.testing.assert_array_equal(owners, expected)

    def test_float_keys_and_wide_spans_are_searched(self):
        from repro.mapreduce.partitioner import RangePartitioner

        assert KeyedRouter(RangePartitioner([0.5, 2.5], 3), "k", "range")._table is None
        assert KeyedRouter(RangePartitioner([0, 1 << 20], 3), "k", "range")._table is None
        batch = np.array([(0.1,), (1.0,), (9.0,)], dtype=[("k", "<f8")])
        router = KeyedRouter(RangePartitioner([0.5, 2.5], 3), "k", "range")
        assert router.route(batch).tolist() == [0, 1, 2]
