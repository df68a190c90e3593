"""The ``plan`` / ``run`` / ``serve`` lint gate asks one question: any errors?

It runs only the checkers that can emit an ERROR code, so no advisory, no
cost model and no input probe runs on the way to a partition.  That the
gate's answer equals the full lint's errors on every configuration of this
directory is checked by ``conftest.py``; this module pins what the gate
skips and the one documented difference: a crash (``PAP099``) of a checker
that can only emit warnings or infos shows under ``repro lint`` but no
longer blocks a run.
"""

import pytest

from repro import PaPar
from repro.analysis.diagnostics import Severity
from repro.analysis.model import LintContext
from repro.analysis.rules import CATALOG, CHECKERS, blocking_checkers
from repro.blast import generate_index
from repro.cli import main
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, write_binary, write_text
from repro.graph import generate_graph


@pytest.fixture
def configs(pytestconfig):
    return pytestconfig.rootpath / "configs"


@pytest.fixture
def blast_args(tmp_path, configs):
    index = tmp_path / "db.index"
    write_binary(index, generate_index("env_nr", num_sequences=500, seed=3),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return [
        "--workflow", str(configs / "blast_partition.xml"),
        "--input-config", str(configs / "blast_db.xml"),
        "--arg", f"input_path={index}", "--arg", f"output_path={tmp_path / 'out'}",
        "--arg", "num_partitions=4",
    ]


@pytest.fixture
def edges(tmp_path):
    path = tmp_path / "edges.txt"
    graph = generate_graph("google", scale=0.002, seed=13)
    write_text(path, graph.to_dataset().to_flat().records.tolist(), EDGE_LIST_SCHEMA)
    return path


def replace_checker(name, codes):
    """Swap the registered checker ``name`` for one that raises; returns it."""
    def crashing(ctx):
        raise RuntimeError("boom")
        yield  # pragma: no cover

    crashing.__name__ = name
    crashing.codes = codes
    index = [f.__name__ for f in CHECKERS].index(name)
    CHECKERS[index] = crashing
    return crashing


def test_the_gate_runs_exactly_the_checkers_that_can_emit_an_error():
    skipped = {f.__name__ for f in CHECKERS} - {f.__name__ for f in blocking_checkers()}
    assert skipped == {
        "check_unused_arguments", "check_collective_schedule",
        "check_sort_determinism", "check_boolean_literals",
        "check_output_gathered", "check_process_backend", "check_stream_safety",
        "check_elided_jobs", "check_unused_columns", "check_exchange_hotspots",
    }
    for func in CHECKERS:
        severities = {CATALOG[code].severity for code in func.codes}
        assert (Severity.ERROR in severities) == (func in blocking_checkers())


def test_the_gate_never_builds_the_cost_model(configs, edges, monkeypatch):
    def no_cost_model(self):
        raise AssertionError("the gate asked for the cost model")

    monkeypatch.setattr(LintContext, "analyzed", no_cost_model)
    papar = PaPar()
    for workflow, schema, arg in (
        ("hybrid_cut.xml", "graph_edge.xml", f"input_file={edges}"),
        ("blast_partition.xml", "blast_db.xml", "input_path=/in"),
    ):
        gate = papar.lint_files(configs / workflow, [configs / schema],
                                args=dict([arg.split("=", 1)]), backend="process",
                                ranks=2, errors_only=True)
        assert gate.diagnostics == []
        # the full lint does ask: its advisories crash on the stub
        full = papar.lint_files(configs / workflow, [configs / schema],
                                args=dict([arg.split("=", 1)]), backend="process",
                                ranks=2)
        assert "PAP099" in full.codes()


def test_an_info_only_checker_crash_shows_in_lint_but_does_not_block_run(
    configs, blast_args, tmp_path, capsys
):
    assert CATALOG["PAP084"].severity is Severity.INFO
    replace_checker("check_exchange_hotspots", ("PAP084",))
    assert main(["lint", str(configs / "blast_partition.xml"),
                 "--input", str(configs / "blast_db.xml")]) == 1
    assert "PAP099" in capsys.readouterr().out
    assert main(["run", *blast_args]) == 0
    assert "wrote 4 partition(s)" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"part-0000{i}" for i in range(4)
    ]


def test_an_error_capable_checker_crash_still_blocks_run(blast_args, capsys):
    replace_checker("check_schema_flow", ("PAP020", "PAP021", "PAP024"))
    assert main(["run", *blast_args]) == 2
    err = capsys.readouterr().err
    assert "PAP099" in err and "check_schema_flow" in err
