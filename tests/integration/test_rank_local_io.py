"""File to file, on every backend: same bytes, nothing left behind.

``partition_files`` is the program the paper generates — input file in,
``part-NNNNN`` files out.  On the SPMD backends each rank reads its own byte
range of a binary input and, when the final deal carries flat records of the
schema being written, writes its pieces of the partitions where they belong
— under a memory budget too, a window of positions at a time; text and
packed outputs, and records widened by add-on attributes, are gathered to
the driver as before.
Whichever tail runs, every part is byte-identical to the serial backend's,
and the output directory only ever shows whole, published parts.

The equivalence cells hold on any commit; the assertions about which tail
ran, temporary names and publishing are what rank-local I/O added.
"""

import glob
import os
import signal
import tempfile

import numpy as np
import pytest

from repro import PaPar
from repro.cli import main
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.errors import FormatError
from repro.formats import (
    BLAST_INDEX_SCHEMA,
    EDGE_LIST_SCHEMA,
    read_binary,
    write_binary,
    write_text,
)
from tests.integration._shapes import FUSED_SORTS

SPMD = ("mpi", "mapreduce", "process")
BACKENDS = ("serial",) + SPMD
RANKS = (1, 2, 4, 8)
HEADER = b"\x00" * BLAST_INDEX_SCHEMA.start_position

_SORT_KEY = '<param name="key" type="KeyId" value="seq_size"/>'
SPLIT_DEAL_XML = """\
<workflow id="split_deal" name="split then deal">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/long,/tmp/split/short" format="orig,orig"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, 30},{&lt;, 30}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="cyclic"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""

#: a flat group whose count add-on appends an 8-byte attribute to every record
GROUP_ATTR_XML = """\
<workflow id="group_attr" name="group with an added attribute, then deal">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="Group">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/group" format="orig"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <addon operator="count" key="seq_size" attr="n"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="cyclic"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""

#: every one ends in a Distribute fed by flat blast_db records only
WORKFLOWS = {
    "blast-cyclic": BLAST_WORKFLOW_XML,
    "blast-block": BLAST_WORKFLOW_XML.replace('value="roundRobin"', 'value="block"'),
    "blast-descending": BLAST_WORKFLOW_XML.replace(
        _SORT_KEY,
        _SORT_KEY + '\n      <param name="ascending" type="boolean" value="false"/>',
    ),
    "split-deal": SPLIT_DEAL_XML,
}


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


def blast_records(n, seed=53):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    arr["seq_start"] = np.arange(n)
    arr["seq_size"] = rng.integers(10, 60, n)  # many ties
    arr["desc_start"] = rng.integers(0, 1 << 30, n)
    arr["desc_size"] = 40
    return arr


def index_file(directory, n):
    path = directory / f"db-{n}.index"
    if not path.exists():
        write_binary(path, blast_records(n), BLAST_INDEX_SCHEMA, header=HEADER)
    return str(path)


def part_files(out_dir):
    """``{file name: bytes}`` of everything in the output directory."""
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
    }


def partition(papar, workflow, input_path, out_dir, parts, backend, ranks=1, **kwargs):
    args = {"input_path": input_path, "output_path": str(out_dir), "num_partitions": parts}
    return papar.partition_files(
        workflow, args, backend=backend, num_ranks=1 if backend == "serial" else ranks,
        **kwargs,
    )


def entries(out_dir):
    """Everything in the output directory, hidden names included."""
    return sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []


def expected_names(parts):
    return [f"part-{p:05d}" for p in range(parts)]


def leftovers():
    """The shared-memory segments of process-backend runs driven from this
    process: ``pp<driver pid in hex><4 hex>r<rank>n<seq>``
    (``repro.mpi.process_backend``, ``repro.mpi.shm``).  A run another
    process drives on the same host has another pid, so it never shows."""
    return sorted(glob.glob(f"/dev/shm/pp{os.getpid():x}{'[0-9a-f]' * 4}r*"))


_SERIAL: dict = {}


def serial_parts(papar, tmp_path_factory, name, n, parts):
    """The serial backend's part files for ``(workflow, records, partitions)``."""
    if (name, n, parts) not in _SERIAL:
        directory = tmp_path_factory.mktemp("serial")
        partition(papar, WORKFLOWS[name], index_file(directory, n), directory / "out",
                  parts, "serial")
        _SERIAL[name, n, parts] = part_files(directory / "out")
    return _SERIAL[name, n, parts]


class TestSameBytesAsSerial:
    @pytest.mark.parametrize("ranks", RANKS)
    @pytest.mark.parametrize("backend", SPMD)
    @pytest.mark.parametrize("name", ["blast-cyclic", "blast-block", "split-deal"])
    def test_every_part_is_byte_identical(
        self, papar, tmp_path, tmp_path_factory, name, backend, ranks
    ):
        n, parts = 1003, 5  # 5 does not divide 1003
        want = serial_parts(papar, tmp_path_factory, name, n, parts)
        assert list(want) == expected_names(parts)
        out = partition(papar, WORKFLOWS[name], index_file(tmp_path, n),
                        tmp_path / "out", parts, backend, ranks)
        assert part_files(tmp_path / "out") == want
        assert out.output_paths == [str(tmp_path / "out" / f) for f in want]

    #: (records, partitions, ranks)
    EDGES = {
        "more-partitions-than-records": (3, 7, 2),
        "fewer-partitions-than-ranks": (200, 3, 8),
        "fewer-records-than-ranks": (3, 2, 8),
        "one-record": (1, 4, 4),
        "empty-input": (0, 4, 4),
    }

    @pytest.mark.parametrize("backend", SPMD)
    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("name", ["blast-cyclic", "blast-block", "split-deal"])
    def test_edge_shapes(self, papar, tmp_path, tmp_path_factory, name, edge, backend):
        n, parts, ranks = self.EDGES[edge]
        want = serial_parts(papar, tmp_path_factory, name, n, parts)
        assert sum(len(blob) - len(HEADER) for blob in want.values()) == n * 16
        partition(papar, WORKFLOWS[name], index_file(tmp_path, n), tmp_path / "out",
                  parts, backend, ranks)
        assert part_files(tmp_path / "out") == want

    def test_empty_input_writes_header_only_parts(self, papar, tmp_path_factory):
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", 0, 4)
        assert want == {name: HEADER for name in expected_names(4)}

    @pytest.mark.parametrize("backend", SPMD)
    def test_descending_sort(self, papar, tmp_path, tmp_path_factory, backend):
        want = serial_parts(papar, tmp_path_factory, "blast-descending", 1003, 5)
        assert want != serial_parts(papar, tmp_path_factory, "blast-cyclic", 1003, 5)
        partition(papar, WORKFLOWS["blast-descending"], index_file(tmp_path, 1003),
                  tmp_path / "out", 5, backend, 4)
        assert part_files(tmp_path / "out") == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_longer_stale_parts_leave_no_tail(
        self, papar, tmp_path, tmp_path_factory, backend
    ):
        """An earlier, larger run's parts sit in the output directory."""
        out_dir = tmp_path / "out"
        partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 4000), out_dir,
                  5, "serial")
        stale = part_files(out_dir)
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", 1003, 5)
        assert all(len(stale[name]) > len(want[name]) for name in want)
        partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003), out_dir,
                  5, backend, 4)
        assert part_files(out_dir) == want

    @pytest.mark.parametrize("backend, ranks, budget", [
        ("serial", 1, None), ("mpi", 2, None), ("process", 2, None), ("serial", 1, "64KB"),
    ])
    def test_fewer_partitions_remove_the_earlier_runs_extra_parts(
        self, papar, tmp_path, tmp_path_factory, backend, ranks, budget
    ):
        """8 partitions, then 3 into the same directory: the three new parts
        remain, and a file that is not a part name stays."""
        out_dir = tmp_path / "out"
        path = index_file(tmp_path, 1003)
        partition(papar, WORKFLOWS["blast-cyclic"], path, out_dir, 8, backend, ranks,
                  memory_budget=budget)
        assert entries(out_dir) == expected_names(8)
        (out_dir / "part-00005.bak").write_bytes(b"not a part")
        out = partition(papar, WORKFLOWS["blast-cyclic"], path, out_dir, 3, backend, ranks,
                        memory_budget=budget)
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", 1003, 3)
        assert part_files(out_dir) == {**want, "part-00005.bak": b"not a part"}
        assert out.output_paths == [str(out_dir / name) for name in want]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_partitions_are_the_files(self, papar, tmp_path, backend):
        out = partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003),
                        tmp_path / "out", 5, backend, 4)
        assert out.num_partitions == 5
        for path, part in zip(out.output_paths, out.partitions):
            on_disk = read_binary(path, BLAST_INDEX_SCHEMA)
            assert part.num_records == len(on_disk)
            np.testing.assert_array_equal(part.to_flat().records, on_disk)
        assert sum(p.num_records for p in out.partitions) == 1003


class TestGatheredTailsStillEqualSerial:
    """Outputs the ranks cannot address by offset keep the exchange-and-gather tail."""

    @pytest.fixture(scope="class")
    def edges_file(self, tmp_path_factory):
        rng = np.random.default_rng(37)
        edges = sorted(
            {(int(s), int(t))
             for s, t in zip(rng.integers(0, 400, 3000), rng.zipf(1.8, size=3000) % 60)}
        )
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        write_text(path, edges, EDGE_LIST_SCHEMA)
        return str(path)

    def hybrid(self, papar, edges_file, out_dir, backend, ranks=1):
        args = {"input_file": edges_file, "output_path": str(out_dir),
                "num_partitions": 4, "threshold": 6}
        return papar.partition_files(
            HYBRID_CUT_WORKFLOW_XML, args, backend=backend, num_ranks=ranks
        )

    @pytest.mark.parametrize("backend", SPMD)
    def test_hybrid_cut_text_and_packed(self, papar, edges_file, tmp_path, backend):
        self.hybrid(papar, edges_file, tmp_path / "serial", "serial")
        out = self.hybrid(papar, edges_file, tmp_path / "out", backend, 4)
        assert part_files(tmp_path / "out") == part_files(tmp_path / "serial")
        assert list(part_files(tmp_path / "out")) == expected_names(4)
        output = out.result.extra["perf"].get("output")
        if output is not None:
            assert output == {"mode": "gathered", "reason": "text output"}

    def test_fewer_text_partitions_remove_the_earlier_runs_extra_parts(
        self, papar, edges_file, tmp_path
    ):
        """The gathered tail: parts written after the run replace a larger set too."""
        self.hybrid(papar, edges_file, tmp_path / "fresh", "serial")
        out_dir = tmp_path / "out"
        for name in expected_names(9):
            os.makedirs(out_dir, exist_ok=True)
            (out_dir / name).write_text("stale\n")
        self.hybrid(papar, edges_file, out_dir, "serial")
        assert part_files(out_dir) == part_files(tmp_path / "fresh")
        assert list(part_files(out_dir)) == expected_names(4)

    @pytest.mark.parametrize("backend", SPMD)
    def test_column_pruned_blast(self, papar, tmp_path, tmp_path_factory, backend):
        """The blast workflow's unread columns are never narrowed away, so
        it leaves this class: the ranks write the full-width parts in
        place, as on a plain run."""
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", 1003, 5)
        out = partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003),
                        tmp_path / "out", 5, backend, 4)
        assert part_files(tmp_path / "out") == want
        assert out.result.extra["perf"]["output"] == {
            "mode": "in_place", "parts": 5, "bytes": 1003 * 16,
        }

    @pytest.mark.parametrize("backend", SPMD)
    def test_the_fused_sorts_write_in_place(self, papar, tmp_path, tmp_path_factory, backend):
        """A sort -> sort on one key runs as its second sort (the planner
        drops the first), so it leaves this class: the ranks write the
        shipped workflow's parts in place."""
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", 1003, 5)
        out = partition(papar, FUSED_SORTS, index_file(tmp_path, 1003),
                        tmp_path / "out", 5, backend, 4)
        assert part_files(tmp_path / "out") == want
        assert out.result.extra["perf"]["output"] == {
            "mode": "in_place", "parts": 5, "bytes": 1003 * 16,
        }

    @pytest.mark.parametrize("backend", SPMD)
    def test_added_attributes(self, papar, tmp_path, tmp_path_factory, backend):
        """A group add-on widens every record past the input's layout, so
        the pieces have no offset in a part file of the input schema."""
        n, parts = 1003, 5
        serial_dir = tmp_path_factory.mktemp("serial-attrs") / "out"
        partition(papar, GROUP_ATTR_XML, index_file(tmp_path, n), serial_dir, parts, "serial")
        want = part_files(serial_dir)
        assert all(len(blob) > len(HEADER) for blob in want.values())
        out = partition(papar, GROUP_ATTR_XML, index_file(tmp_path, n), tmp_path / "out",
                        parts, backend, 4)
        assert part_files(tmp_path / "out") == want
        assert sum(len(blob) - len(HEADER) for blob in want.values()) == n * (16 + 8)
        assert out.result.extra["perf"]["output"] == {
            "mode": "gathered", "reason": "added attributes",
        }


class TestWhichTailRan:
    @pytest.mark.parametrize("backend", SPMD)
    @pytest.mark.parametrize("name", list(WORKFLOWS))
    def test_flat_binary_deals_are_written_in_place(self, papar, tmp_path, name, backend):
        out = partition(papar, WORKFLOWS[name], index_file(tmp_path, 1003),
                        tmp_path / "out", 5, backend, 4)
        assert out.result.extra["perf"]["output"] == {
            "mode": "in_place", "parts": 5, "bytes": 1003 * 16,
        }
        # every dealt record still counts as moved: once through the range
        # exchange (the split workflow has none) and once to its part file
        exchanges = 1 if name == "split-deal" else 2
        assert out.result.extra["perf"]["records_moved"] == exchanges * 1003
        assert all(isinstance(p.records, np.memmap) for p in out.partitions)
        assert not any(p.records.flags.writeable for p in out.partitions)

    def test_the_deal_crosses_no_fabric(self, papar, tmp_path):
        """One record exchange instead of two: the fabric carries the sort only."""
        from repro.core.dataset import Dataset

        path = index_file(tmp_path, 1003)
        files = partition(papar, WORKFLOWS["blast-cyclic"], path, tmp_path / "out", 5,
                          "mpi", 4)
        memory = papar.run(
            WORKFLOWS["blast-cyclic"],
            {"input_path": path, "output_path": "/out", "num_partitions": 5},
            data=Dataset.from_array(BLAST_INDEX_SCHEMA, read_binary(path, BLAST_INDEX_SCHEMA)),
            backend="mpi", num_ranks=4,
        )
        assert "output" not in memory.extra["perf"]
        assert files.result.extra["perf"]["bytes_moved"] == memory.extra["perf"]["bytes_moved"]
        assert files.result.messages < memory.messages
        assert files.result.bytes_moved < memory.bytes_moved

    @pytest.mark.parametrize("backend", ["mpi", "mapreduce"])
    def test_in_place_writes_are_one_span_per_rank(self, papar, tmp_path, backend):
        from repro.obs import Recorder

        rec = Recorder()
        partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003),
                  tmp_path / "out", 5, backend, 4, recorder=rec)
        writes = [s for s in rec.spans if s.name == "write"]
        assert sorted(s.rank for s in writes) == [0, 1, 2, 3]
        assert {s.category for s in writes} == {"io"}
        assert sum(s.attrs["records"] for s in writes) == 1003
        assert not [s for s in rec.spans if s.name == "distribute-shuffle"]

    def test_stats_name_the_tail(self, papar, tmp_path, capsys):
        from repro.commands.run import print_stats

        path = index_file(tmp_path, 1003)
        in_place = "  output: written in place by ranks (5 parts, 15.7 KiB)"
        for workflow, kwargs, line in (
            (WORKFLOWS["blast-cyclic"], {}, in_place),
            (FUSED_SORTS, {}, in_place),
            (WORKFLOWS["blast-cyclic"], {"memory_budget": 4096}, in_place),
            (GROUP_ATTR_XML, {"memory_budget": 4096},
             "  output: gathered to the driver (added attributes)"),
        ):
            out = partition(papar, workflow, path, tmp_path / "out", 5, "process", 2,
                            **kwargs)
            print_stats(out.result)
            printed = capsys.readouterr().out.splitlines()
            assert printed[-1] == line
            assert printed[-2].startswith("  transport: shm, ")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_print_the_path_and_the_tail(self, papar, tmp_path, capsys, backend):
        from repro.commands.run import print_stats

        out = partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003),
                        tmp_path / "out", 5, backend, 2)
        print_stats(out.result)
        printed = capsys.readouterr().out.splitlines()
        sort = "narrow" if backend == "serial" else "cut"
        assert f"  path: sort={sort}, distr=in place" in printed
        assert printed[-1] == "  output: written in place by ranks (5 parts, 15.7 KiB)"

    def test_serial_reports_its_tail(self, papar, tmp_path):
        """The one-rank in-place deal reports its tail as the ranks do."""
        out = partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003),
                        tmp_path / "out", 5, "serial")
        assert out.result.extra["perf"]["output"] == {
            "mode": "in_place", "parts": 5, "bytes": 1003 * 16,
        }
        assert out.result.extra["perf"]["paths"] == {"sort": "narrow", "distr": "in place"}

    @pytest.mark.parametrize("backend", SPMD)
    def test_a_memory_budget_keeps_the_gather(self, papar, tmp_path, tmp_path_factory, backend):
        """A deal gathered for a reason of its own — records widened by an
        add-on — stays gathered under a budget, its outbox in run files."""
        serial_dir = tmp_path_factory.mktemp("serial-attrs") / "out"
        partition(papar, GROUP_ATTR_XML, index_file(tmp_path, 1003), serial_dir, 5, "serial")
        out = partition(papar, GROUP_ATTR_XML, index_file(tmp_path, 1003), tmp_path / "out",
                        5, backend, 4, memory_budget=1024)
        assert out.result.extra["perf"]["output"] == {
            "mode": "gathered", "reason": "added attributes",
        }
        assert out.result.extra["perf"]["spill"]["runs_written"] > 0
        assert part_files(tmp_path / "out") == part_files(serial_dir)


class TestBudgetedRunsWriteInPlace:
    """A memory budget decides where bytes wait, not which tail runs: the
    ranks of a budgeted binary file-to-file run write their windows of the
    deal in place, as they do without one."""

    #: 1 KiB: every rank's range of the sort spills; 64 KiB: none does
    BUDGETS = (1024, 64 * 1024)

    #: (records, partitions, ranks) beyond the ranks x budgets grid
    EDGES = {"more-partitions-than-records": (3, 7, 2), "empty-input": (0, 4, 4)}

    @pytest.fixture
    def spill_root(self, tmp_path, monkeypatch):
        """Where the run's spill directory goes (checked empty afterwards)."""
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def check(self, papar, tmp_path, tmp_path_factory, spill_root, backend, ranks, budget,
              n=1003, parts=5):
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", n, parts)
        out = partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, n),
                        tmp_path / "out", parts, backend, ranks, memory_budget=budget)
        assert part_files(tmp_path / "out") == want
        assert entries(tmp_path / "out") == expected_names(parts)  # no .part-*.tmp left
        assert out.result.extra["perf"]["output"] == {
            "mode": "in_place", "parts": parts, "bytes": n * 16,
        }
        for path, part in zip(out.output_paths, out.partitions):
            if len(part.records):  # a header-only part maps no records
                assert isinstance(part.records, np.memmap)
                assert not part.records.flags.writeable
            np.testing.assert_array_equal(part.records, read_binary(path, BLAST_INDEX_SCHEMA))
        assert os.listdir(spill_root) == []  # no papar-spill-* left
        return out

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("ranks", (1, 2, 4))
    @pytest.mark.parametrize("backend", SPMD)
    def test_same_bytes_written_in_place(
        self, papar, tmp_path, tmp_path_factory, spill_root, backend, ranks, budget
    ):
        out = self.check(papar, tmp_path, tmp_path_factory, spill_root, backend, ranks, budget)
        spill = out.result.extra["perf"].get("spill", {})
        if budget == 1024:
            # the sort spilled its ranges' words — a 4-byte key and a 2-byte
            # row id each — and no record
            assert spill["runs_written"] > 0 and spill["narrow"] > 0
            assert spill["spilled_bytes"] == spill["spilled_records"] * 6
        else:
            assert not spill

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("backend", SPMD)
    def test_edge_shapes(
        self, papar, tmp_path, tmp_path_factory, spill_root, backend, edge, budget
    ):
        n, parts, ranks = self.EDGES[edge]
        self.check(papar, tmp_path, tmp_path_factory, spill_root, backend, ranks, budget,
                   n, parts)

    @pytest.mark.parametrize("backend", SPMD)
    def test_a_run_killed_inside_the_deal_publishes_nothing(
        self, papar, tmp_path, spill_root, monkeypatch, backend
    ):
        """A rank dies at its first part write (a forked rank by SIGKILL)."""
        from repro.formats.binary import PartWriter

        driver = os.getpid()

        def die(self, partition, slot, records):
            if os.getpid() != driver:
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError("rank died inside the deal")

        monkeypatch.setattr(PartWriter, "write", die)
        before = leftovers()
        with pytest.raises(Exception):
            partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 1003),
                      tmp_path / "out", 5, backend, 2, memory_budget=1024)
        assert entries(tmp_path / "out") == []
        assert os.listdir(spill_root) == []
        assert leftovers() == before


class TestMalformedInput:
    CASES = {
        "short": (b"\x00" * 8, "smaller"),
        "ragged": (HEADER + b"\x00" * 40, "not a multiple"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_error_on_every_backend(self, papar, tmp_path, case):
        blob, fragment = self.CASES[case]
        path = tmp_path / "bad.index"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=fragment) as direct:
            read_binary(path, BLAST_INDEX_SCHEMA)
        before = leftovers()
        for backend in BACKENDS:
            for budget in ({}, {"memory_budget": "1MB"}):
                with pytest.raises(FormatError) as refused:
                    partition(papar, WORKFLOWS["blast-cyclic"], str(path),
                              tmp_path / "out", 4, backend, 2, **budget)
                assert str(refused.value) == str(direct.value), (backend, budget)
        assert leftovers() == before
        assert entries(tmp_path / "out") == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_file_cut_after_validation_is_a_short_read(
        self, papar, tmp_path, monkeypatch, backend
    ):
        """Every rank names the byte it could not read (serial: could not
        map); nothing is published."""
        path = index_file(tmp_path, 100)
        real_size = os.path.getsize(path)
        monkeypatch.setattr(os.path, "getsize", lambda _path: real_size + 4 * 16)
        with pytest.raises(FormatError, match=r"expected \d+ records at byte \d+, found"):
            partition(papar, WORKFLOWS["blast-cyclic"], path, tmp_path / "out", 4,
                      backend, 2)
        assert entries(tmp_path / "out") == []


class TestFailureHygiene:
    def cli_args(self, tmp_path, out_dir):
        configs = tmp_path / "configs"
        configs.mkdir(exist_ok=True)
        (configs / "db.xml").write_text(BLAST_INPUT_XML)
        (configs / "wf.xml").write_text(BLAST_WORKFLOW_XML)
        return [
            "run", "--input-config", str(configs / "db.xml"),
            "--workflow", str(configs / "wf.xml"),
            "--arg", f"input_path={index_file(tmp_path, 1003)}",
            "--arg", f"output_path={out_dir}", "--arg", "num_partitions=5",
            "--backend", "process", "--ranks", "2",
        ]

    def test_a_killed_rank_leaves_the_directory_as_it_was(self, papar, tmp_path, capsys):
        """SIGKILL a rank inside the deal, no retry budget: the run fails, and
        the output directory still holds exactly the previous run's parts."""
        out_dir = tmp_path / "out"
        partition(papar, WORKFLOWS["blast-cyclic"], index_file(tmp_path, 4000), out_dir,
                  5, "serial")
        previous = part_files(out_dir)
        before = leftovers()
        rc = main(self.cli_args(tmp_path, out_dir) + ["--crash-agent", "kill:rank=1,job=1"])
        assert rc != 0
        assert "SIGKILL" in capsys.readouterr().err
        assert part_files(out_dir) == previous
        assert leftovers() == before
        assert "PAPAR_CRASH_AGENT" not in os.environ

    def test_a_killed_rank_in_an_empty_directory_leaves_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(self.cli_args(tmp_path, out_dir) + ["--crash-agent", "kill:rank=1,job=1"])
        assert rc != 0
        capsys.readouterr()
        assert entries(out_dir) == []

    def test_a_gang_restart_recovers_the_same_bytes(
        self, papar, tmp_path, tmp_path_factory, capsys
    ):
        want = serial_parts(papar, tmp_path_factory, "blast-cyclic", 1003, 5)
        out_dir = tmp_path / "out"
        rc = main(
            self.cli_args(tmp_path, out_dir) + [
                "--checkpoint-dir", str(tmp_path / "ckpt"), "--max-attempts", "3",
                "--crash-agent", f"kill:rank=1,job=1,marker={tmp_path / 'fired'}",
                "--stats",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "fault tolerance: 2 attempt(s)" in printed
        assert "output: written in place by ranks (5 parts, " in printed
        assert part_files(out_dir) == want
        # the deal that wrote the parts is not a checkpointed job
        assert not [f for f in os.listdir(tmp_path / "ckpt") if "distr" in f]

    def test_a_stale_checkpoint_of_the_deal_is_written_by_the_driver(
        self, papar, tmp_path, tmp_path_factory
    ):
        """A run whose deal is gathered (records widened by an add-on)
        checkpoints it; a later run that finds every job committed restores
        the partitions and has no piece to place — the driver writes what
        the ranks return."""
        from repro.fault import DiskCheckpointStore

        serial_dir = tmp_path_factory.mktemp("serial-attrs") / "out"
        partition(papar, GROUP_ATTR_XML, index_file(tmp_path, 1003), serial_dir, 5, "serial")
        store = DiskCheckpointStore(tmp_path / "ckpt")
        for budget, out_dir, restored in (
            (4096, tmp_path / "first", []), (None, tmp_path / "second", ["group", "distr"])
        ):
            out = partition(papar, GROUP_ATTR_XML, index_file(tmp_path, 1003), out_dir, 5,
                            "mpi", 2, memory_budget=budget, checkpoint=store)
            assert out.result.extra["fault"]["recovered_jobs"] == restored
            assert part_files(out_dir) == part_files(serial_dir)
