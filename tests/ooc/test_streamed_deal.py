"""The strided deal: ``Distribute`` over a source that streams.

A flat source that offers ``chunks()`` — an out-of-core input view, a
spilled sort's sorted runs — is dealt chunk by chunk into preallocated
partitions.  The oracle is the permutation path (``policy.permutation`` +
``policy.counts``) over the materialized records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PaPar
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.core.runtime import SerialRuntime
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from repro.ooc.budget import MemoryBudget
from repro.ooc.chunked import ChunkedDataset
from repro.ooc.extsort import SortedRuns, external_sort_records
from repro.ooc.spill import OOCContext
from repro.ops import Distribute, Sort
from repro.policies.distr import CyclicPolicy

SCHEMA = BLAST_INDEX_SCHEMA


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=SCHEMA.dtype)
    records["seq_start"] = np.arange(n)  # input ordinal
    records["seq_size"] = rng.integers(0, 12, n)  # many ties
    return records


class Chunks:
    """A flat streamed source cut at arbitrary chunk lengths."""

    is_packed = False
    schema = SCHEMA

    def __init__(self, records, lengths):
        self.records = records
        self.lengths = lengths

    def __len__(self):
        return len(self.records)

    def chunks(self):
        pos = 0
        for length in self.lengths:
            yield Dataset(schema=SCHEMA, records=self.records[pos : pos + length])
            pos += length
        if pos < len(self.records):
            yield Dataset(schema=SCHEMA, records=self.records[pos:])

    def materialize(self):
        return Dataset(schema=SCHEMA, records=self.records)


def permutation_oracle(policy, num_partitions, records):
    op = Distribute(policy, num_partitions)
    perm = op.policy.permutation(len(records), num_partitions)
    offsets = np.concatenate(([0], np.cumsum(op.policy.counts(len(records), num_partitions))))
    return [records[perm[offsets[p] : offsets[p + 1]]] for p in range(num_partitions)]


def assert_same(parts, expected):
    assert len(parts) == len(expected)
    for part, want in zip(parts, expected):
        assert not part.is_packed
        assert part.records.dtype == want.dtype
        assert np.array_equal(part.records, want)


class TestStridedDeal:
    @settings(max_examples=120, deadline=None)
    @given(
        policy=st.sampled_from(["cyclic", "block", "graphVertexCut", "roundRobin"]),
        n=st.integers(0, 90),
        num_partitions=st.integers(1, 13),
        lengths=st.lists(st.integers(0, 17), max_size=12),
    )
    def test_chunked_deal_equals_the_permutation(self, policy, n, num_partitions, lengths):
        records = make_records(n)
        expected = permutation_oracle(policy, num_partitions, records)
        op = Distribute(policy, num_partitions)
        assert_same(op.apply_local(Chunks(records, lengths)), expected)
        # the in-memory dataset is the one-chunk case of the same kernel
        assert_same(op.apply_local(Dataset(schema=SCHEMA, records=records)), expected)

    @pytest.mark.parametrize("policy", ["cyclic", "block"])
    def test_more_partitions_than_records(self, policy):
        records = make_records(5)
        parts = Distribute(policy, 9).apply_local(Chunks(records, [2, 2]))
        assert_same(parts, permutation_oracle(policy, 9, records))
        assert [len(p) for p in parts] == [1] * 5 + [0] * 4

    def test_partitions_do_not_alias_the_input(self):
        records = make_records(12)
        parts = Distribute("block", 3).apply_local(Dataset(schema=SCHEMA, records=records))
        parts[0].records["seq_size"][:] = -1
        assert (records["seq_size"] >= 0).all()

    def test_custom_policy_keeps_the_permutation_path(self):
        class Reversed(CyclicPolicy):
            name = "reversed"

            def permutation(self, n, num_partitions):
                return super().permutation(n, num_partitions)[::-1].copy()

            def counts(self, n, num_partitions):
                return super().counts(n, num_partitions)[::-1].copy()

        records = make_records(10)
        op = Distribute(Reversed(), 3)
        parts = op.apply_local(Dataset(schema=SCHEMA, records=records))
        perm = op.policy.permutation(10, 3)
        assert np.array_equal(parts[0].records, records[perm[:3]])
        streamed = op.apply_local(Chunks(records, [4, 4]))  # gathered once resident
        assert_same(streamed, [p.records for p in parts])

    def test_chunked_input_view_is_dealt_from_disk(self, tmp_path):
        records = make_records(1000, seed=2)
        path = str(tmp_path / "in.bin")
        write_binary(path, records, SCHEMA, header=b"\x00" * SCHEMA.start_position)
        view = ChunkedDataset(path, SCHEMA, MemoryBudget("2KB"))
        assert view.chunk_records % 7 != 0  # chunk length no multiple of P
        assert_same(
            Distribute("cyclic", 7).apply_local(view), permutation_oracle("cyclic", 7, records)
        )


class TestSortedRunsView:
    def sorted_view(self, tmp_path, records, budget="2KB"):
        ctx = OOCContext(MemoryBudget(budget), str(tmp_path))
        chunk = ctx.chunk_records(SCHEMA.itemsize)
        return external_sort_records(
            (records[pos : pos + chunk] for pos in range(0, len(records), chunk)),
            "seq_size", True, ctx, SCHEMA,
        )

    @pytest.mark.parametrize("policy", ["cyclic", "block"])
    def test_view_consumed_twice_equals_the_materialized_deal(self, tmp_path, policy):
        records = make_records(1500, seed=4)
        view = self.sorted_view(tmp_path, records)
        assert isinstance(view, SortedRuns) and not view.is_packed
        assert len(view) == 1500 and view.nbytes == records.nbytes
        assert view.schema is SCHEMA
        sorted_ds = Sort("seq_size").apply_local(Dataset(schema=SCHEMA, records=records))
        assert np.array_equal(view.materialize().records, sorted_ds.records)
        op = Distribute(policy, 7)
        expected = [p.records for p in op.apply_local(sorted_ds)]
        assert_same(op.apply_local(view), expected)
        assert_same(op.apply_local(view), expected)  # the runs are still there
        assert_same(op.apply_local(view.materialize()), expected)

    def test_serial_runtime_streams_sort_into_distribute(self, tmp_path):
        records = make_records(4000, seed=5)
        path = str(tmp_path / "in.bin")
        write_binary(path, records, SCHEMA, header=b"\x00" * SCHEMA.start_position)
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        args = {"input_path": path, "output_path": str(tmp_path / "out"), "num_partitions": 6}
        data = Dataset(schema=SCHEMA, records=records)
        plain = papar.run(BLAST_WORKFLOW_XML, args, data=data)
        budgeted = papar.run(
            BLAST_WORKFLOW_XML, args,
            data=ChunkedDataset(path, SCHEMA, MemoryBudget("8KB")), memory_budget="8KB",
        )
        assert budgeted.extra["perf"]["spill"]["max_merge_fanin"] > 0
        assert_same(budgeted.partitions, [p.records for p in plain.partitions])

    def test_sort_as_the_final_job_materializes(self, tmp_path):
        records = make_records(3000, seed=6)
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        spec = papar.load_workflow(BLAST_WORKFLOW_XML)
        plan = papar.plan(spec, {"input_path": "/in", "output_path": "/out", "num_partitions": 4})
        plan.jobs[:] = [job for job in plan.jobs if isinstance(job.operator, Sort)]
        assert len(plan.jobs) == 1
        result = SerialRuntime(memory_budget="8KB").execute(
            plan, Dataset(schema=SCHEMA, records=records)
        )
        assert result.extra["perf"]["spill"]["runs_written"] > 1
        (only,) = result.partitions
        assert isinstance(only, Dataset)  # read back before the spill dir went
        expected = Sort("seq_size").apply_local(Dataset(schema=SCHEMA, records=records))
        assert np.array_equal(only.records, expected.records)
