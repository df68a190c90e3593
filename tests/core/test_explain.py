"""Plan DOT rendering (`repro.analysis.explain.plan_to_dot`): one edge per
output a job reads."""

import re
from types import SimpleNamespace

import pytest

from repro import PaPar
from repro.analysis.explain import plan_to_dot
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML

ARGS = {"input_path": "/in", "output_path": "/out", "num_partitions": 8}


@pytest.fixture
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


class TestDot:
    def test_blast_plan_dot(self, papar):
        plan = papar.plan(BLAST_WORKFLOW_XML, ARGS)
        dot = plan_to_dot(plan)
        assert dot.startswith('digraph "blast_partition"')
        assert '"input" -> "sort"' in dot
        assert '"sort" -> "distr";' in dot
        assert '"distr" -> partitions' in dot

    def test_hybrid_plan_dot(self, papar):
        plan = papar.plan(
            HYBRID_CUT_WORKFLOW_XML,
            {"input_file": "/in", "output_path": "/out", "num_partitions": 4,
             "threshold": 4},
        )
        dot = plan_to_dot(plan)
        assert '"group" -> "split";' in dot
        # the distribute reads the directory holding both split outputs
        assert '"split" -> "distr" [label=0];' in dot
        assert '"split" -> "distr" [label=1];' in dot
        assert dot.count('"input" ->') == 1

    def test_a_chained_job_points_at_its_producer(self, papar):
        """No input parameter: the job reads the previous job, not the input."""
        xml = BLAST_WORKFLOW_XML.replace(
            '<param name="inputPath" type="String" value="$sort.outputPath"/>', "")
        dot = plan_to_dot(papar.plan(xml, ARGS))
        assert '"sort" -> "distr";' in dot
        assert '"input" -> "distr"' not in dot

    def test_ids_with_quotes_and_backslashes_are_escaped(self):
        """Hostile ids must not break out of DOT string literals."""
        job = SimpleNamespace(
            op_id='so"rt', operator_name="Sort\\Stable", source=None
        )
        plan = SimpleNamespace(
            workflow_id='w"f\\1', jobs=[job], final_job=job
        )
        dot = plan_to_dot(plan)
        assert dot.startswith('digraph "w\\"f\\\\1"')
        assert '"so\\"rt"' in dot
        assert 'label="so\\"rt\\n(Sort\\\\Stable)"' in dot
        # every quote inside a string literal is escaped
        for line in dot.splitlines():
            body = line.strip()
            unescaped = re.sub(r'\\.', "", body)
            assert unescaped.count('"') % 2 == 0, line
