"""The narrow sort: keys and row ids move, records are fetched once.

A flat sort over rows that can be fetched by index — an in-memory dataset,
a fixed-width input file through a read-only mapping, another sort's view —
orders its key column and returns row ids of the narrowest unsigned dtype.
Under a budget it spills (key, row id) runs only when the sort's own peak
(``Sort.narrow_bytes``, pinned here against ``tracemalloc``) exceeds it,
and a serial file-to-file run deals straight into the part files.  Every
case is checked against a stable-argsort oracle, or byte for byte against
the other backends.
"""

import errno
import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PaPar
from repro.cli import main
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset, row_id_dtype
from repro.core.planner import Physical, PlannedJob, Planner
from repro.core.runtime import OneRank, SerialRuntime
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from repro.formats.binary import BinaryInputFormat, PartWriter
from repro.mapreduce.columnar import PerfCounters
from repro.ooc.budget import MemoryBudget
from repro.ooc.extsort import SortedRuns, external_sort_rows
from repro.ooc.spill import OOCContext
from repro.ops import Sort
from repro.ops.sort import sort_key_array
from repro.order import ROW_STEP

KEY_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64, np.float64]
FLOAT_POOL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25])
BUDGETS = [None, "1MB", "64KB", "8KB"]


def key_column(dtype, n, shape, seed):
    """``n`` keys of ``dtype``: random, many ties, all equal or the extremes."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        pool = {"random": np.concatenate([FLOAT_POOL, rng.normal(size=32) * 1e3]),
                "ties": FLOAT_POOL[:2], "equal": FLOAT_POOL[3:4],
                "extremes": FLOAT_POOL[:5]}[shape]
        return rng.choice(pool, n).astype(dtype)
    info = np.iinfo(dtype)
    if shape == "random":
        return rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    pool = {"ties": [info.min, info.min + 1, info.max],
            "equal": [info.min], "extremes": [info.min, 0, info.max]}[shape]
    return np.array(pool, dtype=dtype)[rng.integers(0, len(pool), n)]


def oracle(rows, key, ascending):
    return rows[np.argsort(sort_key_array(rows[key], ascending), kind="stable")]


def same(got, want):
    """Bit for bit: NaN payloads and the sign of zero included."""
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def sort_cases(draw):
    dtype = draw(st.sampled_from(KEY_DTYPES))
    n = draw(st.sampled_from([0, 1, 2, 300]) | st.integers(0, 2500))
    shape = draw(st.sampled_from(["random", "ties", "equal", "extremes"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.zeros(n, dtype=[("key", dtype), ("ord", "<i8")])
    rows["key"] = key_column(dtype, n, shape, seed)
    rows["ord"] = np.arange(n)
    return rows, draw(st.booleans()), seed


class TestNarrowKernel:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=sort_cases())
    def test_row_ids_order_the_rows_like_a_stable_argsort(self, case, tmp_path_factory):
        rows, ascending, seed = case
        sort = Sort("key", ascending=ascending)
        want = oracle(rows, "key", ascending)
        ids = sort.order_rows(rows, None)
        assert ids.dtype == row_id_dtype(len(rows))
        assert same(rows[ids], want)
        # a sort of a view composes its order into the view's row ids
        first = np.random.default_rng(seed).permutation(len(rows)).astype(ids.dtype)
        composed = sort.order_rows(rows, first)
        assert same(rows[composed], oracle(rows[first], "key", ascending))
        schema = SimpleNamespace(id="keys", dtype=rows.dtype, itemsize=rows.dtype.itemsize)
        for budget in BUDGETS[1:]:
            spill_dir = tmp_path_factory.mktemp("spill")
            ctx = OOCContext(MemoryBudget.coerce(budget), str(spill_dir))
            streamed_ids = iter(np.array_split(first, 7))
            for given_ids, expected in ((None, want), (first, rows[composed]),
                                        (streamed_ids, rows[composed])):
                runs = external_sort_rows(rows, given_ids, "key", ascending, ctx, schema)
                streamed = [chunk.records for chunk in runs.chunks()]
                got = np.concatenate(streamed) if streamed else rows[:0]
                assert same(got, expected)
                assert same(runs.materialize().records, expected)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 65_536, 70_001])
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint32])
    def test_packed_row_ids_at_every_row_id_width(self, n, dtype):
        """uint8, uint16 and uint32 row ids, across their boundaries: the
        compaction of each word's low lane, and the chunked key reads."""
        rows = np.zeros(n, dtype=[("key", dtype), ("ord", "<i8")])
        rows["key"] = key_column(dtype, n, "ties" if n % 2 else "random", n)
        first = np.random.default_rng(n).permutation(n).astype(row_id_dtype(n))
        for ascending in (True, False):
            sort = Sort("key", ascending=ascending)
            ids = sort.order_rows(rows, None)
            assert ids.dtype == row_id_dtype(n) and ids.base.nbytes < n * ids.itemsize + 8
            assert same(rows[ids], oracle(rows, "key", ascending))
            assert same(rows[sort.order_rows(rows, first)], oracle(rows[first], "key", ascending))


class TestWhatTheBudgetWeighs:
    @pytest.mark.parametrize("kernel", ["numpy", "aspas"])
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint32, np.int64, np.uint64, np.float64])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("composed", [False, True])
    def test_the_sort_peaks_within_its_weight(self, kernel, dtype, ascending, composed):
        n = 60_000
        rows = np.zeros(n, dtype=[("key", dtype), ("ord", "<i8")])
        rows["key"] = key_column(dtype, n, "random", 5)
        ids = np.random.default_rng(6).permutation(n).astype(row_id_dtype(n)) if composed else None
        sort = Sort("key", ascending=ascending, kernel=kernel)
        tracemalloc.start()
        try:
            sort.order_rows(rows, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = ids.nbytes if composed else 0  # the composed ids were resident already
        assert peak <= sort.narrow_bytes(n, rows, composed) - held


# -- file to file -----------------------------------------------------------------

INPUT_XML = """\
<input id="narrow_in" name="narrow sort input">
  <input_format>binary</input_format>
  <start_position>8</start_position>
  <element>
    <value name="key" type="{type}"/>
    <value name="ord" type="long"/>
  </element>
</input>
"""

SORT_XML = """\
    <operator id="{id}" operator="Sort">
      <param name="key" type="KeyId" value="key"/>
      <param name="ascending" type="boolean" value="{ascending}"/>
      <param name="inputPath" type="String" value="{source}"/>
      <param name="outputPath" type="String" value="/user/{id}"/>
    </operator>
"""

WORKFLOW_XML = """\
<workflow id="narrow" name="sort (then sort again) and deal">
  <arguments>
    <param name="input_path" type="hdfs" format="narrow_in"/>
    <param name="output_path" type="hdfs" format="narrow_in"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
{sorts}    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="${last}.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="{policy}"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""

#: key field type -> numpy dtype, as the input config maps it
FIELD_TYPES = {"integer": np.int32, "long": np.int64, "double": np.float64}
_PAPARS: dict = {}


def papar_for(field_type):
    if field_type not in _PAPARS:
        papar = PaPar()
        papar.register_input(INPUT_XML.format(type=field_type))
        _PAPARS[field_type] = papar
    return _PAPARS[field_type]


def workflow(ascending, policy, fused):
    flag = "true" if ascending else "false"
    sorts = SORT_XML.format(id="sort1", ascending=flag, source="$input_path")
    if fused:  # PAP081's witness: the same sort twice
        sorts += SORT_XML.format(id="sort2", ascending=flag, source="$sort1.outputPath")
    return WORKFLOW_XML.format(sorts=sorts, last="sort2" if fused else "sort1", policy=policy)


def part_files(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def expected_parts(rows, ascending, policy, parts):
    """The oracle: a stable argsort, then the policy's counts cut by position."""
    from repro.policies.distr import get_policy

    ordered = oracle(rows, "key", ascending)
    if policy == "cyclic":
        pieces = [ordered[p::parts] for p in range(parts)]
    else:
        ends = np.cumsum(get_policy(policy).counts(len(rows), parts))
        pieces = np.split(ordered, ends[:-1])
    return {f"part-{p:05d}": b"\x00" * 8 + piece.tobytes() for p, piece in enumerate(pieces)}


class TestFileToFileEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        field_type=st.sampled_from(sorted(FIELD_TYPES)),
        n=st.sampled_from([0, 1, 2]) | st.integers(0, 2500),
        shape=st.sampled_from(["random", "ties", "equal", "extremes"]),
        seed=st.integers(0, 2**32 - 1),
        ascending=st.booleans(),
        policy=st.sampled_from(["cyclic", "block"]),
        parts=st.integers(1, 7),
        fused=st.booleans(),
    )
    def test_budgets_plans_and_mpi_write_the_same_bytes(
        self, tmp_path_factory, field_type, n, shape, seed, ascending, policy, parts, fused
    ):
        work = tmp_path_factory.mktemp("narrow")
        papar = papar_for(field_type)
        schema = papar.schema("narrow_in")
        rows = np.zeros(n, dtype=schema.dtype)
        rows["key"] = key_column(FIELD_TYPES[field_type], n, shape, seed)
        rows["ord"] = np.arange(n)
        path = work / "in.bin"
        write_binary(path, rows, schema, header=b"\x00" * 8)
        wf = workflow(ascending, policy, fused)
        want = expected_parts(rows, ascending, policy, parts)
        # the planner drops a fused workflow's first sort; the plan of every
        # declared job must write the same bytes
        runs = [("serial", 1, budget, every_job)
                for budget in BUDGETS for every_job in (False, True)] + [("mpi", 2, None, False)]
        for i, (backend, ranks, budget, every_job) in enumerate(runs):
            out = work / f"out{i}"
            args = {"input_path": str(path), "output_path": str(out), "num_partitions": parts}
            plan = papar.load_workflow(wf)
            if every_job:
                plan = Planner()._plan_every_job(plan, args)
            papar.partition_files(plan, args, backend=backend, num_ranks=ranks,
                                  memory_budget=budget)
            assert part_files(out) == want, (backend, budget, every_job)


# -- what moves, and when it spills -----------------------------------------------


def blast_rows(n, seed=3):
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    rows["seq_start"] = np.arange(n)
    rows["seq_size"] = rng.integers(10, 900, n)
    rows["desc_size"] = rng.integers(0, 7, n)
    return rows


def blast_index(path, n):
    write_binary(path, blast_rows(n), BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return str(path)


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    return p


def run_blast(papar, data, budget, parts=6):
    args = {"input_path": "/in", "output_path": "/out", "num_partitions": parts}
    result = papar.run(BLAST_WORKFLOW_XML, args, data=data, memory_budget=budget)
    return result, [p.records for p in result.partitions]


class TestWhatMoves:
    def test_a_sort_of_a_sort_composes_row_ids(self):
        data = Dataset(schema=BLAST_INDEX_SCHEMA, records=blast_rows(1000))
        first = Sort("seq_size").apply_local(data)
        second = Sort("desc_size", ascending=False).apply_local(first)
        assert second._pending[0] is data.records  # no record moved
        assert first._pending is not None
        assert second._pending[1].dtype == np.uint16
        want = oracle(oracle(data.records, "seq_size", True), "desc_size", False)
        assert np.array_equal(second.records, want)

    def test_a_file_view_is_sorted_through_a_read_only_mapping(self, tmp_path):
        path = blast_index(tmp_path / "db.index", 300)
        view = Sort("seq_size").apply_local(BinaryInputFormat(path, BLAST_INDEX_SCHEMA))
        rows, ids = view._pending
        assert isinstance(rows, np.memmap) and not rows.flags.writeable
        assert ids.dtype == np.uint16
        assert np.array_equal(view.records, oracle(blast_rows(300), "seq_size", True))

    def test_the_spill_decision_weighs_the_sorts_own_peak(self, papar):
        # 100k int32 keys, uint32 row ids: one packed word per entry and a chunk
        data = Dataset(schema=BLAST_INDEX_SCHEMA, records=blast_rows(100_000))
        weight = Sort("seq_size").narrow_bytes(100_000, data.records, False)
        assert weight == 800_000 + 24 * ROW_STEP
        _, plain = run_blast(papar, data, None)
        fits, fit_parts = run_blast(papar, data, weight)
        assert "spill" not in fits.extra["perf"]
        spills, spill_parts = run_blast(papar, data, weight - 1)
        assert spills.extra["perf"]["spill"]["narrow"] == 1
        for a, b, c in zip(plain, fit_parts, spill_parts):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_at_8kb_the_serial_path_spills_narrow_runs(self, papar, tmp_path):
        """Six runs of (int32 key, uint16 row id): what is spilled is exactly
        ``n * (4 + 2)`` bytes, and no record."""
        n = 2000
        path = blast_index(tmp_path / "db.index", n)
        out = {}
        for budget in (None, "8KB"):
            out[budget] = tmp_path / f"out-{budget}"
            result = papar.partition_files(
                BLAST_WORKFLOW_XML,
                {"input_path": path, "output_path": str(out[budget]), "num_partitions": 6},
                memory_budget=budget,
            )
        spill = result.result.extra["perf"]["spill"]
        assert spill["spilled_records"] == n
        assert spill["spilled_bytes"] == n * (4 + 2) and spill["narrow"] == 1
        assert spill["runs_written"] == 6 and spill["max_merge_fanin"] == 6
        assert part_files(out["8KB"]) == part_files(out[None])
        # the one-rank in-place tail: the partitions are the published files
        assert all(isinstance(p.records, np.memmap) for p in result.partitions)
        assert sorted(os.listdir(out["8KB"])) == [f"part-{p:05d}" for p in range(6)]

    def test_a_sort_of_spilled_narrow_runs_streams_their_row_ids(self, tmp_path):
        """Sort -> sort under a budget: the second sort never holds the
        first one's ``n`` row ids at once."""
        n = 200_000
        data = Dataset(schema=BLAST_INDEX_SCHEMA, records=blast_rows(n))
        ctx = OOCContext(MemoryBudget.coerce("64KB"), str(tmp_path))

        def narrow_sort(op, source):
            job = PlannedJob(op.key, "Sort", op, None)
            return SerialRuntime()._run_job(OneRank(), job, Physical(spill="narrow"), source,
                                            PerfCounters(), ctx)

        first = narrow_sort(Sort("seq_size"), data)
        assert isinstance(first, SortedRuns) and first.rows is data.records
        tracemalloc.start()
        try:
            second = narrow_sort(Sort("desc_size", ascending=False), first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(second, SortedRuns) and second.rows is data.records
        assert peak < n * row_id_dtype(n).itemsize // 4
        want = oracle(oracle(data.records, "seq_size", True), "desc_size", False)
        assert same(second.materialize().records, want)


# -- a failed write -----------------------------------------------------------------


def failing(real, fail_on, error, when=lambda *a, **k: True):
    """``real``, except that its ``fail_on``-th qualifying call raises ``error``."""
    calls = [0]

    def wrapper(*args, **kwargs):
        if when(*args, **kwargs):
            calls[0] += 1
            if calls[0] == fail_on:
                raise OSError(error, os.strerror(error))
        return real(*args, **kwargs)

    return wrapper


class TestFailedWrite:
    def cli_args(self, tmp_path, index, out_dir, budget):
        configs = tmp_path / "configs"
        configs.mkdir(exist_ok=True)
        (configs / "db.xml").write_text(BLAST_INPUT_XML)
        (configs / "wf.xml").write_text(BLAST_WORKFLOW_XML)
        args = [
            "run", "--input-config", str(configs / "db.xml"),
            "--workflow", str(configs / "wf.xml"),
            "--arg", f"input_path={index}", "--arg", f"output_path={out_dir}",
            "--arg", "num_partitions=5",
        ]
        return args + (["--memory-budget", budget] if budget else [])

    @pytest.mark.parametrize("budget", [None, "8KB"])
    @pytest.mark.parametrize("fault", ["pwrite", "open", "rename"])
    def test_one_error_line_and_the_previous_parts_untouched(
        self, tmp_path, monkeypatch, capsys, fault, budget
    ):
        out_dir = tmp_path / "out"
        assert main(self.cli_args(tmp_path, blast_index(tmp_path / "old.index", 4000),
                                  out_dir, None)) == 0
        previous = part_files(out_dir)
        capsys.readouterr()
        spill_root = tmp_path / "tmp"
        spill_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill_root))
        if fault == "pwrite":  # the disk fills up on the third piece
            monkeypatch.setattr(os, "pwrite", failing(os.pwrite, 3, errno.ENOSPC))
            words = ("cannot write part-", os.strerror(errno.ENOSPC))
        elif fault == "open":  # out of descriptors at part 2's first open
            monkeypatch.setattr(PartWriter, "_open", failing(
                PartWriter._open, 1, errno.EMFILE, when=lambda self, p: p == 2))
            words = ("part-00002", os.strerror(errno.EMFILE))
        else:  # the output directory refuses the first rename
            monkeypatch.setattr(os, "replace", failing(
                os.replace, 1, errno.EACCES, when=lambda *a, **k: ".part-" in str(a[0])))
            words = ("cannot publish part-00000", os.strerror(errno.EACCES))
        index = blast_index(tmp_path / "new.index", 1003)
        rc = main(self.cli_args(tmp_path, index, out_dir, budget))
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(word in err[0] for word in words), err[0]
        assert part_files(out_dir) == previous  # nothing published, nothing left
        assert os.listdir(spill_root) == []  # no papar-spill-* directory either

    def test_a_sibling_rank_ends_quietly_on_the_process_backend(
        self, tmp_path, monkeypatch, capfd
    ):
        """``process@2``, and one rank's disk fills: the rank the supervisor
        then tears down prints no ``ShutdownRequested`` traceback, so stderr
        holds the run's one error line, nothing is published and no segment
        is left in ``/dev/shm``."""
        out_dir = tmp_path / "out"
        index = blast_index(tmp_path / "new.index", 1003)
        # under the cyclic deal rank 0 writes slot 0 of every part, so only
        # rank 1 writes past a part's first record
        first = BLAST_INDEX_SCHEMA.start_position
        monkeypatch.setattr(os, "pwrite", failing(
            os.pwrite, 1, errno.ENOSPC, when=lambda fd, data, offset: offset > first))
        rc = main(self.cli_args(tmp_path, index, out_dir, None)
                  + ["--backend", "process", "--ranks", "2"])
        err = capfd.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert os.strerror(errno.ENOSPC) in err[0]
        assert part_files(out_dir) == {}
        assert not [name for name in os.listdir("/dev/shm") if name.startswith("pp")]
