"""The stable-order kernel and the lazy sort built on it.

``stable_order`` must equal ``np.argsort(kind="stable")`` bit for bit on
every key array — the packed path (integer keys whose range and index share
one 64-bit word) and the fallback alike.  A plain ``Sort`` returns a
``SortedView``; dealing from it must equal dealing the materialized sort,
and every other consumer must see a plain sorted dataset.
"""

import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import PaPar, order
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.config.workflow import Bindings
from repro.core.dataset import Dataset, SortedView
from repro.core.mr_runtime import MapReduceRuntime
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.core.process_runtime import ProcessRuntime
from repro.core.runtime import MPIRuntime, SerialRuntime
from repro.fault import MemoryCheckpointStore, RetryPolicy
from repro.formats import BLAST_INDEX_SCHEMA
from repro.ops import Count, Distribute, Group, Sort, Split
from repro.order import sort_key_array, stable_order
from repro.policies import SplitPolicy
from repro.policies.distr import CyclicPolicy, _POLICIES, register_policy

SCHEMA = BLAST_INDEX_SCHEMA

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def assert_is_stable_argsort(keys):
    got = stable_order(keys)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@contextmanager
def packed_from(cutoff):
    """Move the small-``n`` cutoff, so that tiny arrays take the packed path."""
    saved, order.PACKED_MIN_KEYS = order.PACKED_MIN_KEYS, cutoff
    try:
        yield
    finally:
        order.PACKED_MIN_KEYS = saved


class TestStableOrderKernel:
    def test_ops_sort_reexports_the_kernel(self):
        assert stable_order is order.stable_order

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from(INT_DTYPES + [np.bool_]),
           narrow=st.booleans(), cutoff=st.sampled_from([2, order.PACKED_MIN_KEYS]))
    def test_integer_and_bool_keys(self, data, dtype, narrow, cutoff):
        if narrow:  # many ties
            elements = st.integers(0, 3) if dtype is not np.bool_ else st.booleans()
        else:
            elements = None  # the full range of the dtype
        keys = data.draw(hnp.arrays(dtype, st.integers(0, 40), elements=elements))
        with packed_from(cutoff):
            assert_is_stable_argsort(keys)
            if dtype is not np.bool_:  # numpy has no boolean negative
                assert_is_stable_argsort(sort_key_array(keys, ascending=False))

    @settings(max_examples=60, deadline=None)
    @given(keys=hnp.arrays(
        st.sampled_from([np.float32, np.float64]), st.integers(0, 40),
        elements=st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5]),
            st.floats(-10, 10, width=32),
        ),
    ))
    def test_float_keys_with_nan_and_inf_fall_back(self, keys):
        with packed_from(2):
            assert_is_stable_argsort(keys)
            assert_is_stable_argsort(sort_key_array(keys, False))

    @settings(max_examples=30, deadline=None)
    @given(keys=hnp.arrays("S3", st.integers(0, 30)))
    def test_fixed_width_bytes_fall_back(self, keys):
        with packed_from(2):
            assert_is_stable_argsort(keys)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize(
        "n", [0, 1, 2, order.PACKED_MIN_KEYS - 1, order.PACKED_MIN_KEYS,
              order.PACKED_MIN_KEYS + 1, 5000]
    )
    def test_sizes_across_the_cutoff(self, dtype, n):
        rng = np.random.default_rng(n)
        info = np.iinfo(dtype)
        wide = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
        assert_is_stable_argsort(wide)
        assert_is_stable_argsort(rng.integers(0, 5, n).astype(dtype))  # ties
        assert_is_stable_argsort(np.full(n, info.max, dtype=dtype))  # all equal
        if n >= 2:
            wide[0], wide[-1] = info.max, info.min
            assert_is_stable_argsort(wide)

    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize(
        "dtype,extreme",
        [(np.int32, -(2**31)), (np.int64, 2**63 - 1), (np.int64, -(2**63)),
         (np.uint64, 2**64 - 1), (np.uint32, 2**32 - 1)],
    )
    def test_dtype_extremes(self, dtype, extreme, ascending):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 100, 3000).astype(dtype)
        keys[[5, 1700, 2999]] = extreme
        assert_is_stable_argsort(sort_key_array(keys, ascending))
        # packed even when the keys sit at the edge of the dtype
        near = (np.full(3000, extreme, dtype=dtype)
                - (rng.integers(0, 9, 3000).astype(dtype) if extreme > 0 else 0)
                + (rng.integers(0, 9, 3000).astype(dtype) if extreme < 0 else 0))
        assert_is_stable_argsort(sort_key_array(near, ascending))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_range_that_exactly_fits_and_one_bit_past(self, dtype):
        n = 2048  # 11 index bits leave 53 for the rebased key
        rng = np.random.default_rng(11)
        base = -(2**40) if dtype is np.int64 else 0
        keys = (rng.integers(0, 2**53, n) + base).astype(dtype)
        keys[3], keys[900] = base, base + 2**53 - 1  # range needs exactly 53 bits
        assert (int(keys.max()) - int(keys.min())).bit_length() + (n - 1).bit_length() == 64
        assert_is_stable_argsort(keys)
        keys[900] = base + 2**53  # 54 bits: one past, falls back
        assert (int(keys.max()) - int(keys.min())).bit_length() + (n - 1).bit_length() == 65
        assert_is_stable_argsort(keys)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize("span", [255, 256])
    def test_byte_range_and_one_past(self, dtype, span):
        """Rebased ranges of exactly 255 and 256, at each end of the dtype."""
        rng = np.random.default_rng(span)
        info = np.iinfo(dtype)
        for lo in {info.min, 0, info.max - span}:
            if lo < info.min or lo + span > info.max:
                continue  # e.g. a 256 range in a byte
            keys = (rng.integers(0, span + 1, 5000).astype(object) + lo).astype(dtype)
            keys[[0, 4999]] = lo, lo + span  # the range is exactly ``span``
            assert int(keys.max()) - int(keys.min()) == span
            assert_is_stable_argsort(keys)
            assert_is_stable_argsort(keys[::-1].copy())

    @pytest.mark.parametrize(
        "dtype,lo",
        [(np.int8, -128), (np.int16, -(2**15)), (np.int32, -(2**31)),
         (np.int64, -(2**63)), (np.int64, 2**63 - 256)],
    )
    def test_byte_range_at_signed_extremes(self, dtype, lo):
        """A byte's range that starts at the dtype minimum, or ends at its maximum."""
        rng = np.random.default_rng(17)
        keys = (np.int64(lo) + rng.integers(0, 256, 3000)).astype(dtype)
        keys[[1, 2]] = lo, lo + 255
        assert_is_stable_argsort(keys)
        assert_is_stable_argsort(sort_key_array(keys, ascending=False))

    def test_bool_keys_and_uint64_keys_near_the_maximum(self):
        rng = np.random.default_rng(19)
        assert_is_stable_argsort(rng.integers(0, 2, 4000).astype(np.bool_))
        assert_is_stable_argsort(np.zeros(4000, dtype=np.bool_))
        top = np.uint64(2**64 - 1)
        keys = top - rng.integers(0, 256, 4000).astype(np.uint64)
        keys[7] = top
        assert_is_stable_argsort(keys)
        keys[8] = top - np.uint64(256)  # one past a byte
        assert_is_stable_argsort(keys)

    def test_strided_key_column_of_a_record_array(self):
        rng = np.random.default_rng(3)
        records = np.zeros(4000, dtype=SCHEMA.dtype)
        records["seq_size"] = rng.integers(-(2**31), 2**31, 4000)
        assert not records["seq_size"].flags.c_contiguous
        assert_is_stable_argsort(records["seq_size"])

    def test_the_keys_are_left_untouched(self):
        keys = np.random.default_rng(5).integers(0, 50, 3000)
        before = keys.copy()
        stable_order(keys)
        assert np.array_equal(keys, before)


# -- the lazy sort ---------------------------------------------------------------


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=SCHEMA.dtype)
    records["seq_start"] = np.arange(n)  # input ordinal
    records["seq_size"] = rng.integers(0, 12, n)  # many ties
    records["desc_size"] = rng.integers(0, 5, n)
    return records


def dataset(n, seed=0):
    return Dataset(schema=SCHEMA, records=make_records(n, seed))


def materialized(view):
    """The sorted dataset as the parent built it: one eager gather."""
    return Dataset(schema=view.schema, records=view.records.copy())


def assert_same_parts(got, want):
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert type(ours) is Dataset and not ours.is_packed
        assert ours.records.dtype == theirs.records.dtype
        assert np.array_equal(ours.records, theirs.records)


class TestSortedView:
    def test_a_plain_sort_returns_the_unsorted_pair(self):
        data = dataset(50)
        out = Sort("seq_size").apply_local(data)
        assert isinstance(out, SortedView) and isinstance(out, Dataset)
        assert out._pending is not None and out._pending[0] is data.records
        # none of these reads gathers
        assert len(out) == out.num_records == 50 and out.nbytes == data.nbytes
        assert not out.is_packed and out.schema is SCHEMA
        assert out._pending is not None

    @pytest.mark.parametrize(
        "touch",
        [
            lambda v: v.records,
            lambda v: v.column("seq_size"),
            lambda v: v.take(np.arange(3)),
            lambda v: v.to_flat(),
            lambda v: v.rows(),
            lambda v: v.to_packed("seq_size"),
            lambda v: pickle.dumps(v),
        ],
        ids=["records", "column", "take", "to_flat", "rows", "to_packed", "pickle"],
    )
    def test_any_other_touch_materializes_once_and_drops_the_pair(self, touch):
        data = dataset(200, seed=1)
        view = Sort("seq_size").apply_local(data)
        touch(view)
        assert view._pending is None
        want = data.records[np.argsort(data.records["seq_size"], kind="stable")]
        assert np.array_equal(view.records, want)
        assert view.records is view.records  # gathered once

    def test_to_flat_and_pickle_give_plain_datasets(self):
        view = Sort("seq_size").apply_local(dataset(64))
        assert type(view.to_flat()) is Dataset
        clone = pickle.loads(pickle.dumps(Sort("seq_size").apply_local(dataset(64))))
        assert type(clone) is Dataset
        assert np.array_equal(clone.records, view.records)

    def test_addon_and_packed_sorts_stay_eager(self):
        data = dataset(40)
        assert type(Sort("seq_size", addon=Count(), addon_attr="n").apply_local(data)) is Dataset
        assert type(Sort("seq_size").apply_local(data.to_packed("seq_size"))) is Dataset

    @pytest.mark.parametrize("ascending", [True, False])
    def test_the_view_gathers_the_stable_order(self, ascending):
        data = dataset(3000, seed=2)
        view = Sort("seq_size", ascending=ascending).apply_local(data)
        key = sort_key_array(data.records["seq_size"], ascending)
        assert np.array_equal(view.records, data.records[np.argsort(key, kind="stable")])


class TestDealFromTheLazySort:
    @settings(max_examples=120, deadline=None)
    @given(
        policy=st.sampled_from(["cyclic", "block", "graphVertexCut", "roundRobin"]),
        n=st.integers(0, 90),
        num_partitions=st.integers(1, 13),
        ascending=st.booleans(),
    )
    def test_lazy_deal_equals_the_materialized_deal(self, policy, n, num_partitions, ascending):
        sort = Sort("seq_size", ascending=ascending)
        op = Distribute(policy, num_partitions)
        view = sort.apply_local(dataset(n, seed=n))
        want = op.apply_local(materialized(sort.apply_local(dataset(n, seed=n))))
        assert_same_parts(op.apply_local(view), want)
        assert view._pending is not None  # dealing never builds the sorted copy
        assert_same_parts(op.apply_local(view), want)  # and can be repeated

    @pytest.mark.parametrize("policy", ["cyclic", "block"])
    def test_the_deal_leaves_the_view_lazy(self, policy):
        view = Sort("seq_size").apply_local(dataset(5000, seed=3))
        parts = Distribute(policy, 7).apply_local(view)
        assert view._pending is not None
        assert sum(len(p) for p in parts) == 5000

    @pytest.mark.parametrize("policy", ["cyclic", "block"])
    def test_more_partitions_than_records(self, policy):
        view = Sort("seq_size").apply_local(dataset(5))
        parts = Distribute(policy, 9).apply_local(view)
        assert [len(p) for p in parts] == [1] * 5 + [0] * 4
        assert_same_parts(parts, Distribute(policy, 9).apply_local(materialized(view)))

    def test_empty_input(self):
        view = Sort("seq_size").apply_local(dataset(0))
        parts = Distribute("cyclic", 3).apply_local(view)
        assert [len(p) for p in parts] == [0, 0, 0]
        assert all(p.records.dtype == SCHEMA.dtype for p in parts)

    def test_partitions_do_not_alias_the_input(self):
        data = dataset(12)
        parts = Distribute("block", 3).apply_local(Sort("seq_size").apply_local(data))
        parts[0].records["seq_size"][:] = -1
        assert (data.records["seq_size"] >= 0).all()

    def test_a_permutation_defined_policy_deals_without_the_sorted_copy(self):
        class ByPermutation(CyclicPolicy):
            """Cyclic dealing restated by its permutation alone."""

            name = "by-permutation-test"

            def permutation(self, n, num_partitions):
                return super().permutation(n, num_partitions)

        register_policy("by-permutation-test", ByPermutation)
        try:
            want = Distribute("cyclic", 4).apply_local(
                materialized(Sort("seq_size").apply_local(dataset(24, seed=4))))
            view = Sort("seq_size").apply_local(dataset(24, seed=4))
            op = Distribute("by-permutation-test", 4)
            assert not op.policy.deals_by_position
            assert_same_parts(op.apply_local(view), want)
            # each partition's share of the permutation is gathered from the
            # pair: the sorted copy is never built
            assert view._pending is not None
        finally:
            del _POLICIES["by-permutation-test"]

    def test_custom_registered_policy_takes_the_permutation_path(self):
        class Reversed(CyclicPolicy):
            name = "reversed-lazy-test"

            def permutation(self, n, num_partitions):
                return super().permutation(n, num_partitions)[::-1].copy()

            def counts(self, n, num_partitions):
                return super().counts(n, num_partitions)[::-1].copy()

        register_policy("reversed-lazy-test", Reversed)
        try:
            op = Distribute("reversed-lazy-test", 3)
            view = Sort("seq_size").apply_local(dataset(10, seed=5))
            want = op.apply_local(materialized(view))
            perm = op.policy.permutation(10, 3)
            assert np.array_equal(want[0].records, view.records[perm[:3]])
            fresh = Sort("seq_size").apply_local(dataset(10, seed=5))
            assert_same_parts(op.apply_local(fresh), want)
            assert fresh._pending is not None
        finally:
            del _POLICIES["reversed-lazy-test"]


# -- consumers of a sort, on every backend ---------------------------------------


def plan_of(*ops):
    """A linear plan: each operator consumes its predecessor."""
    jobs, source = [], None
    for i, op in enumerate(ops):
        op_id = f"job{i}"
        jobs.append(PlannedJob(op_id=op_id, operator_name=type(op).__name__, operator=op,
                               source=source, output_paths=[f"/tmp/{op_id}"]))
        source = op_id
    return WorkflowPlan(workflow_id="lazy-sort", jobs=jobs, env=Bindings())


CONSUMERS = {
    "distribute-cyclic": lambda: (Sort("seq_size"), Distribute("cyclic", 5)),
    "distribute-block": lambda: (Sort("seq_size", ascending=False), Distribute("block", 5)),
    "group": lambda: (Sort("seq_size"), Group("desc_size"), Distribute("cyclic", 5)),
    "group-orig": lambda: (
        Sort("seq_size"), Group("desc_size", output_format="orig"), Distribute("block", 3)
    ),
    "split": lambda: (
        Sort("seq_size"),
        Split("seq_size", SplitPolicy.parse("{>=, 6},{<, 6}")),
        Distribute("graphVertexCut", 4),
    ),
    "addon-sort": lambda: (
        Sort("seq_size"),
        Sort("desc_size", addon=Count(), addon_attr="n"),
        Distribute("cyclic", 4),
    ),
    "sort-sort": lambda: (Sort("seq_size"), Sort("desc_size"), Distribute("cyclic", 6)),
}

SPMD = {"mpi": MPIRuntime, "mapreduce": MapReduceRuntime, "process": ProcessRuntime}


def part_records(result):
    return [p.to_flat().records for p in result.partitions]


class TestConsumerMatrix:
    #: large enough that every rank's share takes the packed kernel
    N = 6000

    @pytest.fixture(scope="class")
    def serial(self):
        data = dataset(self.N, seed=9)
        return {
            name: part_records(SerialRuntime().execute(plan_of(*ops()), data))
            for name, ops in CONSUMERS.items()
        }

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_serial_equals_the_eager_sort(self, name, serial, monkeypatch):
        """The reference: the same plan with ``Sort`` gathering at once."""
        lazy = Sort.apply_local

        def eager(self, data):
            out = lazy(self, data)
            return materialized(out) if isinstance(out, SortedView) else out

        monkeypatch.setattr(Sort, "apply_local", eager)
        result = SerialRuntime().execute(plan_of(*CONSUMERS[name]()), dataset(self.N, seed=9))
        for ours, theirs in zip(serial[name], part_records(result)):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["mpi", "mapreduce"])
    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_threaded_backends_equal_serial(self, name, backend, ranks, serial):
        result = SPMD[backend](num_ranks=ranks).execute(
            plan_of(*CONSUMERS[name]()), dataset(self.N, seed=9)
        )
        assert len(result.partitions) == len(serial[name])
        for ours, theirs in zip(part_records(result), serial[name]):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    @pytest.mark.parametrize("name", ["distribute-cyclic", "distribute-block", "split"])
    def test_process_backend_equals_serial(self, name, ranks, serial):
        result = ProcessRuntime(num_ranks=ranks).execute(
            plan_of(*CONSUMERS[name]()), dataset(self.N, seed=9)
        )
        for ours, theirs in zip(part_records(result), serial[name]):
            assert np.array_equal(ours, theirs)

    def test_sort_as_the_final_job(self):
        data = dataset(self.N, seed=10)
        result = SerialRuntime().execute(plan_of(Sort("seq_size")), data)
        (only,) = result.partitions
        assert isinstance(only, Dataset)
        want = data.records[np.argsort(data.records["seq_size"], kind="stable")]
        assert np.array_equal(only.records, want)

    @pytest.mark.parametrize("backend", ["mpi", "mapreduce"])
    def test_checkpoint_round_trip_restores_a_plain_sorted_dataset(self, backend):
        """A crash before the distribute job: the retry restores the sort's
        output from its checkpoint (pickled, hence materialized) and deals it."""
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 6}
        data = dataset(self.N, seed=11)
        serial = papar.run(BLAST_WORKFLOW_XML, args, data=data)
        store = MemoryCheckpointStore()
        recovered = papar.run(
            BLAST_WORKFLOW_XML, args, data=data, backend=backend, num_ranks=4,
            faults=["crash:rank=1,job=1,when=before"], checkpoint=store,
            retry=RetryPolicy(max_attempts=3),
        )
        assert recovered.extra["fault"]["attempts"] == 2
        saved = [store.load(key)["output"] for key in store.keys() if "sort" in key]
        assert saved and all(type(out) is Dataset for out in saved)
        for ours, theirs in zip(recovered.partitions, serial.partitions):
            assert np.array_equal(ours.records, theirs.records)
