"""Workflow shapes over the shipped BLAST input schema, for the tests of
the jobs the planner drops.

``FUSED_SORTS`` (sort -> sort on one key -> distribute) is the PAP081
witness the golden transcripts pin; ``ELIDED`` holds one workflow per
shape the planner shortens, ``REFUSED`` one per shape it must run whole.
"""

from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BLAST_WORKFLOW = (REPO / "configs" / "blast_partition.xml").read_text()
DISTR_INPUT = '<param name="inputPath" type="String" value="$sort.outputPath"/>'


def wf(operators, args_xml=None):
    args_xml = args_xml or """
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
    <param name="num_partitions" type="Integer" value="4"/>
    """
    return f"""
<workflow id="t" name="t">
  <arguments>{args_xml}</arguments>
  <operators>{operators}</operators>
</workflow>
"""


SORT = """
  <operator id="{id}" operator="Sort">
    <param name="key" type="KeyId" value="{key}"/>
    <param name="inputPath" value="{inp}"/>
    <param name="outputPath" value="{out}"/>
    {extra}
  </operator>
"""

DESCENDING = '<param name="ascending" value="false"/>'


def sort_op(id, inp, out, key="seq_size", extra=""):
    return SORT.format(id=id, key=key, inp=inp, out=out, extra=extra)


def group_op(id, inp, out, key="seq_size", fmt=""):
    fmt = f' format="{fmt}"' if fmt else ""
    return f"""
  <operator id="{id}" operator="Group">
    <param name="key" type="KeyId" value="{key}"/>
    <param name="inputPath" value="{inp}"/>
    <param name="outputPath" value="{out}"{fmt}/>
  </operator>
"""


def distr_op(id, inp, out, policy="roundRobin", parts="$num_partitions"):
    return f"""
  <operator id="{id}" operator="Distribute">
    <param name="inputPath" value="{inp}"/>
    <param name="outputPath" value="{out}"/>
    <param name="distrPolicy" value="{policy}"/>
    <param name="numPartitions" type="integer" value="{parts}"/>
  </operator>
"""


FUSED_SORTS = wf(
    sort_op("sort1", "$input_path", "/user/s1")
    + sort_op("sort2", "$sort1.outputPath", "/user/s2")
    + distr_op("distr", "$sort2.outputPath", "$output_path")
)


def witness(target):
    """The shipped BLAST workflow with the distribute reading ``target``
    instead of the sort: the sort is dead."""
    return BLAST_WORKFLOW.replace(
        DISTR_INPUT, DISTR_INPUT.replace("$sort.outputPath", target))


#: shape -> (workflow, the op ids the planner drops)
ELIDED = {
    "fused-sorts": (FUSED_SORTS, ["sort1"]),
    "dead-operator": (wf(
        sort_op("sort", "$input_path", "/user/s1")
        + sort_op("dead", "$sort.outputPath", "/user/dead", key="seq_start")
        + distr_op("distr", "$sort.outputPath", "$output_path")), ["dead"]),
    "dead-chain": (wf(
        sort_op("sort", "$input_path", "/user/s1", extra=DESCENDING)
        + sort_op("dead1", "$sort.outputPath", "/user/d1", key="desc_size")
        + group_op("dead2", "$dead1.outputPath", "/user/d2", key="desc_size")
        + distr_op("distr", "$sort.outputPath", "$output_path", policy="block")),
        ["dead1", "dead2"]),
    "sort-group": (wf(
        sort_op("sort", "$input_path", "/user/s1", extra=DESCENDING)
        + group_op("group", "$sort.outputPath", "/user/g1")
        + distr_op("distr", "$group.outputPath", "$output_path")), ["sort"]),
    "group-sort": (wf(
        group_op("group", "$input_path", "/user/g1")
        + sort_op("sort", "$group.outputPath", "/user/s1")
        + distr_op("distr", "$sort.outputPath", "$output_path", policy="block")), ["sort"]),
    "witness-input-path": (witness("$input_path"), ["sort"]),
    "witness-prefix-only": (witness("/user/sort"), ["sort"]),
}

#: shape -> workflow the planner runs whole
REFUSED = {
    "sorts-different-keys": wf(
        sort_op("sort1", "$input_path", "/user/s1", key="seq_start")
        + sort_op("sort2", "$sort1.outputPath", "/user/s2")
        + distr_op("distr", "$sort2.outputPath", "$output_path")),
    "sorts-opposite-directions": wf(
        sort_op("sort1", "$input_path", "/user/s1", extra=DESCENDING)
        + sort_op("sort2", "$sort1.outputPath", "/user/s2")
        + distr_op("distr", "$sort2.outputPath", "$output_path")),
    "group-descending-sort": wf(
        group_op("group", "$input_path", "/user/g1")
        + sort_op("sort", "$group.outputPath", "/user/s1", extra=DESCENDING)
        + distr_op("distr", "$sort.outputPath", "$output_path")),
    # a direction read from an argument is read with its value: "false"
    "direction-argument": wf(
        sort_op("sort1", "$input_path", "/user/s1", extra='<param name="ascending" value="$up"/>')
        + sort_op("sort2", "$sort1.outputPath", "/user/s2")
        + distr_op("distr", "$sort2.outputPath", "$output_path"), args_xml="""
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
    <param name="num_partitions" type="Integer" value="4"/>
    <param name="up" value="false"/>
    """),
    "packed-group-sort": wf(
        group_op("group", "$input_path", "/user/g1", fmt="pack")
        + sort_op("sort", "$group.outputPath", "/user/s1")
        + distr_op("distr", "$sort.outputPath", "$output_path")),
}
