"""A linted spec reports its own file's line numbers.

``PaPar.lint(spec)`` lints the spec's own model, with the source lines it
carries — not a re-serialization of it,
whose lines belong to a document nobody wrote.  The witness: the shipped
BLAST workflow behind a two-line comment, with a sort-key typo.
"""

from pathlib import Path

import pytest

from repro import PaPar
from repro.analysis import Linter
from repro.analysis.engine import read_configs

CONFIGS = Path(__file__).resolve().parents[2] / "configs"


@pytest.fixture
def shifted(tmp_path):
    """The BLAST workflow two lines down, keying on ``seq_sizze``."""
    text = (CONFIGS / "blast_partition.xml").read_text()
    assert text.startswith("<workflow")
    text = "<!-- two lines\n     of comment -->\n" + text.replace(
        'value="seq_size"', 'value="seq_sizze"'
    )
    path = tmp_path / "shifted.xml"
    path.write_text(text)
    return str(path)


def pap020_lines(result):
    return [d.line for d in result.diagnostics if d.code == "PAP020"]


def test_the_file_lint_points_at_the_key(shifted):
    result = Linter().lint(**read_configs(shifted, [CONFIGS / "blast_db.xml"]))
    assert pap020_lines(result) == [14]


def test_linting_the_parsed_spec_points_at_the_same_line(shifted):
    papar = PaPar()
    papar.register_input_file(CONFIGS / "blast_db.xml")
    result = papar.lint(papar.load_workflow_file(shifted))
    assert pap020_lines(result) == [14]
    assert {d.file for d in result.diagnostics if d.code == "PAP020"} == {shifted}

