"""One wiring: what lint reports, what the planner drops and what every
backend runs are the same graph.

The witnesses are the shipped BLAST workflow with the distribute's
``inputPath`` pointed away from the sort — at the workflow input, or at a
path (``/user/sort``) that only shares a prefix with the sort's output
(``/user/sort_output``).  Either way the declared wiring reads the workflow
input, so the sort is dead, the planner drops it, and the parts are those
of the distribute-only workflow, on {serial, mpi, mapreduce, process}.
"""

from pathlib import Path

import pytest

from repro.blast import generate_index
from repro.cli import main
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = (REPO / "configs" / "blast_partition.xml").read_text()
INPUT_CFG = str(REPO / "configs" / "blast_db.xml")
DISTR_INPUT = '<param name="inputPath" type="String" value="$sort.outputPath"/>'
WITNESSES = {"input-path": "$input_path", "prefix-only": "/user/sort"}
BACKENDS = ["serial", "mpi", "mapreduce", "process"]


def witness(tmp_path, name):
    path = tmp_path / f"{name}.xml"
    path.write_text(WORKFLOW.replace(
        DISTR_INPUT, DISTR_INPUT.replace("$sort.outputPath", WITNESSES[name])))
    return str(path)


def distribute_only(tmp_path):
    """The declared meaning of both witnesses: the sort operator deleted."""
    start = WORKFLOW.index('    <operator id="sort"')
    end = WORKFLOW.index('    <operator id="distr"')
    path = tmp_path / "distribute-only.xml"
    path.write_text(WORKFLOW[:start] + WORKFLOW[end:].replace(
        "$sort.outputPath", "$input_path"))
    return str(path)


@pytest.fixture(scope="module")
def blast_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "db.index"
    write_binary(path, generate_index("env_nr", num_sequences=400, seed=11),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path


def run_parts(workflow, blast_file, out, backend="serial"):
    assert main(["run", "--workflow", workflow, "--input-config", INPUT_CFG,
                 "--arg", f"input_path={blast_file}", "--arg", f"output_path={out}",
                 "--arg", "num_partitions=4", "--backend", backend,
                 "--ranks", "1" if backend == "serial" else "2"]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def declared(tmp_path_factory, blast_file):
    tmp = tmp_path_factory.mktemp("declared")
    return run_parts(distribute_only(tmp), blast_file, tmp / "out")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_runs_as_declared(tmp_path, blast_file, declared, name, backend):
    parts = run_parts(witness(tmp_path, name), blast_file, tmp_path / "out", backend)
    assert parts == declared


def test_the_declared_meaning_is_not_the_sorted_workflow(tmp_path, blast_file, declared):
    shipped = str(REPO / "configs" / "blast_partition.xml")
    assert run_parts(shipped, blast_file, tmp_path / "out") != declared


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_lint_reports_the_graph_the_plan_runs(tmp_path, capsys, name):
    """The sort is unconsumed in the IR and dropped from the plan:
    PAP030/PAP080 fire, and PAP043 (a distribute partitioning a sort's
    output) does not."""
    assert main(["lint", witness(tmp_path, name), "--input", INPUT_CFG]) == 0
    out = capsys.readouterr().out
    assert "warning PAP030 output '/user/sort_output' of operator 'sort'" in out
    assert "info PAP080 operator 'sort' is dead" in out
    assert "PAP043" not in out


def test_plan_prints_the_source_of_a_chained_job(tmp_path, blast_file, capsys):
    """A distribute without ``inputPath`` reads the sort before it."""
    path = tmp_path / "chained.xml"
    path.write_text(WORKFLOW.replace(DISTR_INPUT, ""))
    assert main(["plan", "--workflow", str(path), "--input-config", INPUT_CFG,
                 "--arg", f"input_path={blast_file}", "--arg", f"output_path={tmp_path}",
                 "--arg", "num_partitions=4"]) == 0
    out = capsys.readouterr().out
    assert "  [1] distr (Distribute) <- sort  -> " in out


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_plan_drops_the_dead_sort(tmp_path, blast_file, capsys, name):
    assert main(["plan", "--workflow", witness(tmp_path, name), "--input-config", INPUT_CFG,
                 "--arg", f"input_path={blast_file}", "--arg", f"output_path={tmp_path}",
                 "--arg", "num_partitions=4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["workflow 'blast_partition': 1 job(s)",
                       f"  [0] distr (Distribute) <- <workflow input>  -> {tmp_path}"]
    assert out[2].startswith("  elided: sort (PAP080 the final job does not read its outputs")
