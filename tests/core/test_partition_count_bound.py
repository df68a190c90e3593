"""A partition or reducer count past the declared ``integer`` type is a lint
error (PAP036), so ``run`` refuses it with one located line on every
backend instead of dying in a per-partition allocation.  A count lint takes
but no run can write (2**31 - 1 part files) is refused by ``run`` itself,
before the input is read or any part file exists."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import Linter
from repro.analysis.rules.paths import INTEGER_MAX
from repro.cli import main
from repro.core.files import MAX_PARTITIONS, check_partition_counts
from repro.errors import WorkflowError
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = str(REPO / "configs" / "blast_partition.xml")
INPUT_CFG = str(REPO / "configs" / "blast_db.xml")
#: the witness: lint-clean before the bound, a 745 GiB ``np.zeros`` in ``run``
WITNESS = "99999999999"
#: ``numPartitions`` in the shipped BLAST workflow
LOCATION = f"{WORKFLOW}:18"


@pytest.fixture
def blast_file(tmp_path):
    path = tmp_path / "db.index"
    write_binary(path, generate_index("env_nr", num_sequences=300, seed=5),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path


def args(blast_file, out, partitions):
    return ["--arg", f"input_path={blast_file}", "--arg", f"output_path={out}",
            "--arg", f"num_partitions={partitions}"]


def test_the_bound_is_the_largest_int32():
    assert INTEGER_MAX == 2**31 - 1


def test_lint_locates_the_witness(tmp_path, blast_file, capsys):
    assert main(["lint", WORKFLOW, "--input", INPUT_CFG,
                 *args(blast_file, tmp_path / "out", WITNESS)]) == 1
    out = capsys.readouterr().out
    assert (f"{LOCATION}: error PAP036 operator 'distr': numPartitions is {WITNESS}, "
            f"but must be <= {INTEGER_MAX}") in out


def test_lint_takes_the_bound_itself(tmp_path, blast_file, capsys):
    assert main(["lint", WORKFLOW, "--input", INPUT_CFG,
                 *args(blast_file, tmp_path / "out", INTEGER_MAX)]) == 0
    assert "PAP036" not in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
def test_run_refuses_the_witness_before_any_allocation(
    tmp_path, blast_file, capsys, backend
):
    out = tmp_path / "out"
    assert main(["run", "--workflow", WORKFLOW, "--input-config", INPUT_CFG,
                 *args(blast_file, out, WITNESS),
                 "--backend", backend, "--ranks", "2"]) == 2
    err = capsys.readouterr().err
    assert f"{LOCATION}: error PAP036" in err
    assert "fix them or pass --no-lint" in err
    assert "MemoryError" not in err
    assert not out.exists()


@pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
def test_run_refuses_the_largest_integer_before_any_part_file(
    tmp_path, blast_file, capsys, backend
):
    # lint-clean (the bound itself), and a 16 GiB np.zeros in the deal before
    out = tmp_path / "out"
    ranks = [] if backend == "serial" else ["--ranks", "2"]
    assert main(["run", "--workflow", WORKFLOW, "--input-config", INPUT_CFG,
                 *args(blast_file, out, INTEGER_MAX), "--backend", backend, *ranks]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: operator 'distr': numPartitions is {INTEGER_MAX}, "
                   f"but a run writes at most {MAX_PARTITIONS} part files\n")
    assert not out.exists()


def test_the_part_count_bound_takes_the_bound_itself():
    def plan(count):
        return SimpleNamespace(jobs=[SimpleNamespace(
            op_id="distr", operator=SimpleNamespace(num_partitions=count))])

    check_partition_counts(plan(MAX_PARTITIONS))
    with pytest.raises(WorkflowError, match=f"numPartitions is {MAX_PARTITIONS + 1}"):
        check_partition_counts(plan(MAX_PARTITIONS + 1))


def test_num_reducers_has_the_same_bound():
    xml = f"""<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute" num_reducers="{INTEGER_MAX + 1}">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="$output_path"/>
      <param name="distrPolicy" value="roundRobin"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""
    result = Linter().lint(xml, filename="t.xml",
                           inputs=[(Path(INPUT_CFG).read_text(), "blast_db.xml")])
    found = [d for d in result.diagnostics if d.code == "PAP036"]
    assert [(d.line, d.message) for d in found] == [(
        7, f"operator 'distr': num_reducers is {INTEGER_MAX + 1}, "
           f"but must be <= {INTEGER_MAX} (the largest integer)",
    )]
