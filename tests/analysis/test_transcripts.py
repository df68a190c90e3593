"""Golden transcripts: ``lint`` and ``explain`` print the same bytes.

The files under ``data/transcripts`` hold the text and JSON output of the
two analysis commands on the shipped BLAST and hybrid-cut pairs and on
a fusable sort → sort workflow (PAP081 fires), written by the analyzer
before its model and the runtime spec became one type.  Each command must
still print exactly those bytes and exit 0.  The configs
are copied into a scratch directory and named relative to it, so the
``file`` fields do not depend on where the repository lives.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python -m tests.analysis.test_transcripts``.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from repro.cli import main
from tests.integration._shapes import FUSED_SORTS

REPO = Path(__file__).resolve().parents[2]
DATA = Path(__file__).resolve().parent / "data" / "transcripts"
BLAST_DB = (REPO / "configs" / "blast_db.xml").read_text()

#: case -> ((workflow file, text), (input file, text))
CASES = {
    "blast": (("blast_partition.xml", (REPO / "configs" / "blast_partition.xml").read_text()),
              ("blast_db.xml", BLAST_DB)),
    "hybrid": (("hybrid_cut.xml", (REPO / "configs" / "hybrid_cut.xml").read_text()),
               ("graph_edge.xml", (REPO / "configs" / "graph_edge.xml").read_text())),
    "fused-sorts": (("fused_sorts.xml", FUSED_SORTS), ("blast_db.xml", BLAST_DB)),
}
VERBS = ("lint", "explain")
FORMATS = {"text": "txt", "json": "json"}


def transcript(case: str, verb: str, fmt: str, workdir: Path) -> tuple[int, str]:
    """Exit code and standard output of one command, run inside ``workdir``."""
    (wf_name, wf_text), (in_name, in_text) = CASES[case]
    (workdir / wf_name).write_text(wf_text)
    (workdir / in_name).write_text(in_text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main([verb, wf_name, "--input", in_name,
                         "--assume-records", "1000", "--format", fmt])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_the_golden_transcript(tmp_path, case, verb, fmt):
    code, out = transcript(case, verb, fmt, tmp_path)
    golden = (DATA / f"{case}.{verb}.{FORMATS[fmt]}").read_text()
    assert code == 0  # the three configs have no errors, only infos
    assert out == golden


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        for verb in VERBS:
            for fmt, ext in FORMATS.items():
                with tempfile.TemporaryDirectory() as scratch:
                    code, out = transcript(case, verb, fmt, Path(scratch))
                (DATA / f"{case}.{verb}.{ext}").write_text(out)
                print(f"{case}.{verb}.{ext}: exit {code}", file=sys.stderr)
