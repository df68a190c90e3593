"""Experiment harness and report aggregation (``benchmarks/_harness.py`` and
``benchmarks/report.py``, loaded from the benchmarks directory by path)."""

import sys
from pathlib import Path

import pytest

from repro.errors import PaParError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _harness import Experiment, Reporter, format_table, shape
    from report import load_experiments, render_report
finally:
    sys.path.pop(0)


class TestFormatTable:
    def test_alignment(self):
        rows = [{"name": "a", "value": 1.23456}, {"name": "longer", "value": 2}]
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in table  # 4 significant digits

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]


class TestExperimentAndReporter:
    def test_record_writes_artifacts(self, tmp_path):
        reporter = Reporter(str(tmp_path))
        exp = Experiment("Figure X", "demo")
        exp.add(metric=1.0, label="one")
        exp.note("a note")
        text = reporter.record(exp)
        assert "Figure X" in text
        assert (tmp_path / "figure_x.txt").exists()
        assert (tmp_path / "figure_x.json").exists()

    def test_shape_helper(self):
        shape(True, "fine")
        with pytest.raises(PaParError, match="violation"):
            shape(False, "broken claim")


class TestReport:
    def test_roundtrip_through_json(self, tmp_path):
        reporter = Reporter(str(tmp_path))
        for i in range(3):
            exp = Experiment(f"Exp {i}", f"title {i}")
            exp.add(x=i)
            reporter.record(exp)
        loaded = load_experiments(str(tmp_path))
        assert [e.id for e in loaded] == ["Exp 0", "Exp 1", "Exp 2"]
        report = render_report(str(tmp_path))
        assert "3 experiments" in report
        assert "title 2" in report

    def test_missing_dir(self, tmp_path):
        report = render_report(str(tmp_path / "nope"))
        assert "no recorded experiments" in report
