"""PAP041's probe on the shipped policies, and on a subclass of one.

The lint gate skips the probe for a policy whose exact class ships with
the repo (so ``lint``/``plan`` load no numpy); that is sound only because
every shipped policy passes the probe at every size, which this file
checks.  A subclass may override the rule, so it is still probed.
"""

import numpy as np
import pytest

from repro.analysis import CATALOG, Linter
from repro.analysis.rules.plan import permutation_problems
from repro.config import BLAST_INPUT_XML
from repro.policies.distr import (
    _POLICIES,
    BlockPolicy,
    CyclicPolicy,
    GraphVertexCutPolicy,
    register_policy,
)

WORKFLOW = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="d" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/d"/>
      <param name="distrPolicy" value="{policy}"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""


def lint(policy):
    return Linter().lint(WORKFLOW.format(policy=policy), filename="t.xml",
                         inputs=[(BLAST_INPUT_XML, "blast_db.xml")], do_plan=True)


@pytest.mark.parametrize("cls", [CyclicPolicy, BlockPolicy, GraphVertexCutPolicy])
def test_every_shipped_policy_passes_the_probe_at_every_size(cls):
    policy = cls()
    for nparts in range(1, 65):
        for n in sorted({0, 1, nparts - 1, nparts, 3 * nparts + 2}):
            assert permutation_problems(policy, n, nparts) is None, (nparts, n)


@pytest.mark.parametrize("name", ["cyclic", "roundRobin", "block", "graphVertexCut"])
def test_a_shipped_policy_lints_clean(name):
    assert not [d for d in lint(name).diagnostics if d.code == "PAP041"]


def test_a_broken_subclass_of_a_shipped_policy_is_still_probed():
    class BrokenCyclic(CyclicPolicy):
        name = "brokencyclic"

        def permutation(self, n, num_partitions):
            return np.zeros(n, dtype=np.int64)

    register_policy("brokencyclic", BrokenCyclic)
    try:
        result = lint("brokencyclic")
    finally:
        _POLICIES.pop("brokencyclic", None)
    [diag] = [d for d in result.diagnostics if d.code == "PAP041"]
    assert diag.severity is CATALOG["PAP041"].severity
    assert diag.line == 6
    assert diag.message == (
        "job 'd': distribution policy 'brokencyclic' is not a valid permutation "
        "of 4 partition(s): indices are not a permutation of 0..13"
    )
