"""Lint's verdict is the run's path: the physical plan is one decision.

``lint --backend`` and the SPMD runtimes read the same
:func:`~repro.core.physical.physical_plan`, so on each workflow below PAP073
fires exactly when the run's ``extra["perf"]["output"]`` is gathered, with
the reason the run reports, and PAP084 names exactly the jobs whose
observed path ships records (a record exchange or a gathered deal) —
silent on a plan of a cut and an in-place deal.  The workflows:

* the shipped BLAST workflow: a cut sort and an in-place deal, nothing to
  report at 20M records;
* a flat group whose add-on widens every record (gathered, ``added
  attributes``);
* a split with one ``pack`` output (gathered, ``packed stream``);
* packed groups split back to records (``unpack,unpack``) and dealt:
  written in place, although a group packed them on the way.
"""

import pytest

from repro import PaPar
from repro.analysis.engine import Linter, read_configs
from repro.config import BLAST_INPUT_XML
from tests.integration.test_rank_local_io import (
    GROUP_ATTR_XML, SPLIT_DEAL_XML, index_file, partition,
)

SPMD = ("mpi", "mapreduce", "process")

PACK_THEN_UNPACK_XML = """\
<workflow id="pack_unpack" name="packed groups split back to records, then dealt">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="Group">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/group" format="pack"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/long,/tmp/split/short" format="unpack,unpack"/>
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


def shipped_blast(pytestconfig):
    configs = pytestconfig.rootpath / "configs"
    return read_configs(str(configs / "blast_partition.xml"), [str(configs / "blast_db.xml")])


#: witness -> (the run's paths by job, the run's output tail)
WITNESSES = {
    "shipped-blast": ({"sort": "cut", "distr": "in place"}, "in_place"),
    "group-attr": ({"group": "records", "distr": "gathered (added attributes)"},
                   ("gathered", "added attributes")),
    "split-pack-orig": ({"distr": "gathered (packed stream)"}, ("gathered", "packed stream")),
    "pack-then-unpack": ({"group": "records", "distr": "in place"}, "in_place"),
}


def workflow_of(name, pytestconfig):
    """``(lint keyword arguments, workflow XML text)`` of one witness."""
    if name == "shipped-blast":
        configs = shipped_blast(pytestconfig)
        return configs, configs["workflow"]
    xml = {"group-attr": GROUP_ATTR_XML,
           "split-pack-orig": SPLIT_DEAL_XML.replace('format="orig,orig"', 'format="pack,orig"'),
           "pack-then-unpack": PACK_THEN_UNPACK_XML}[name]
    return {"workflow": xml, "filename": f"{name}.xml",
            "inputs": [(BLAST_INPUT_XML, "blast_db.xml")]}, xml


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    return p


@pytest.mark.parametrize("backend", SPMD)
@pytest.mark.parametrize("name", list(WITNESSES))
def test_lint_says_what_the_run_does(papar, pytestconfig, tmp_path, name, backend):
    configs, xml = workflow_of(name, pytestconfig)
    lint = Linter(backend=backend, ranks=2, assume_records=20_000_000).lint(**configs)
    assert "PAP083" not in lint.codes()
    out = partition(papar, xml, index_file(tmp_path, 4000), tmp_path / "out", 5, backend, 2)
    perf = out.result.extra["perf"]
    paths, tail = WITNESSES[name]
    assert perf["paths"] == paths
    gathered = [d.message for d in lint.diagnostics if d.code == "PAP073"]
    if tail == "in_place":
        assert perf["output"] == {"mode": "in_place", "parts": 5, "bytes": 4000 * 16}
        assert gathered == []
    else:
        mode, reason = tail
        assert perf["output"] == {"mode": mode, "reason": reason}
        assert len(gathered) == 1 and f"({reason})" in gathered[0]
    # 20M records of at least 16 B: every job that ships records is a hotspot
    shipping = {op_id for op_id, path in perf["paths"].items()
                if path == "records" or path.startswith("gathered")}
    hotspots = {d.message.split("'")[1] for d in lint.diagnostics if d.code == "PAP084"}
    assert hotspots == shipping
