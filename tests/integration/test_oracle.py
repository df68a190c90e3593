"""The partitioner against the paper's definitions (``_oracle.py``).

Every backend runs one rank program and one physical plan, so the
equivalence matrices compare that code with itself.  The oracle shares no
code with it: it interprets the same parsed workflow from Table I and the
deal matrices of Section III-B.  Each cell runs a shipped workflow and
compares every partition's dtype and bytes with the oracle's.

The sizes are the edges of the deal — no record, one, one short of a full
row, one full row, and three rows plus a partial one — over keys with many
ties, so that stability and the partial row both decide where a record goes.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.policies.distr import get_policy
from tests.integration import _oracle

P = 4
SIZES = [0, 1, P - 1, P, 3 * P + 2]
THRESHOLD = 3

#: the BLAST workflow with its roundRobin deal replaced by ``block``
BLAST_BLOCK_XML = BLAST_WORKFLOW_XML.replace('value="roundRobin"', 'value="block"')
WORKFLOWS = {
    "blast": (BLAST_WORKFLOW_XML, "blast_db"),
    "blast-block": (BLAST_BLOCK_XML, "blast_db"),
    "hybrid_cut": (HYBRID_CUT_WORKFLOW_XML, "graph_edge"),
}


@pytest.fixture(scope="module")
def papar():
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    papar.register_input(EDGE_INPUT_XML)
    return papar


def records_for(schema, n, seed=0):
    """``n`` records with tied keys, shuffled: BLAST sizes from 0..4; edges
    alternately into three hub vertices, round-robin, and two by two into
    the others, so that at ``3P + 2`` edges and at the file cell's 58 a hub
    reaches the split threshold and both streams end in a partial row."""
    rng = np.random.default_rng(seed + n)
    records = np.zeros(n, dtype=schema.dtype)
    if schema.id == "blast_db":
        for name in schema.field_names:
            records[name] = rng.integers(0, 1000, size=n)
        records["seq_size"] = rng.integers(0, 5, size=n)
    else:
        i = np.arange(n)
        records["vertex_a"] = rng.integers(0, 50, size=n)
        records["vertex_b"] = np.where(i % 2 == 0, (i // 2) % 3, 3 + i // 4)
    return records[rng.permutation(n)]


def arguments(workflow, num_partitions, input_path="/in", output_path="/out"):
    if workflow == "hybrid_cut":
        return {"input_file": input_path, "output_path": output_path,
                "num_partitions": num_partitions, "threshold": THRESHOLD}
    return {"input_path": input_path, "output_path": output_path,
            "num_partitions": num_partitions}


def expected(papar, workflow, records, args):
    xml, schema_id = WORKFLOWS[workflow]
    return _oracle.partitions(papar.load_workflow(xml), papar.schema(schema_id), records, args)


def assert_same_partitions(got, want):
    assert len(got) == len(want)
    for p, (ours, theirs) in enumerate(zip(got, want)):
        assert ours.dtype == theirs.dtype, p
        assert ours.tobytes() == theirs.tobytes(), p


def run_in_memory(papar, workflow, n, **backend):
    xml, schema_id = WORKFLOWS[workflow]
    schema = papar.schema(schema_id)
    records = records_for(schema, n)
    args = arguments(workflow, P)
    result = papar.run(xml, args, data=Dataset.from_array(schema, records.copy()), **backend)
    _, want = expected(papar, workflow, records, args)
    assert_same_partitions([part.to_flat().records for part in result.partitions], want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("workflow", sorted(WORKFLOWS))
def test_serial_equals_the_oracle(papar, workflow, n):
    run_in_memory(papar, workflow, n)


@pytest.mark.parametrize("workflow", ["blast", "hybrid_cut"])
def test_mpi_equals_the_oracle(papar, workflow):
    run_in_memory(papar, workflow, 3 * P + 2, backend="mpi", num_ranks=2)


def write_input(path, schema, records):
    """The input file, written without the partitioner's codecs."""
    if schema.input_format == "binary":
        path.write_bytes(b"\x00" * schema.start_position + records.tobytes())
    else:
        path.write_text("".join("\t".join(map(str, row)) + "\n" for row in records.tolist()))


@pytest.mark.parametrize("workflow", ["blast", "hybrid_cut"])
def test_part_files_equal_the_oracle(papar, workflow, tmp_path):
    """BLAST parts byte for byte, header included; hybrid-cut rows in file order."""
    xml, schema_id = WORKFLOWS[workflow]
    schema = papar.schema(schema_id)
    records = records_for(schema, 58, seed=7)
    write_input(tmp_path / "input", schema, records)
    out = tmp_path / "out"
    args = arguments(workflow, P, str(tmp_path / "input"), str(out))
    papar.partition_files(xml, args)
    part_schema, want = expected(papar, workflow, records, args)
    assert sorted(os.listdir(out)) == [f"part-{p:05d}" for p in range(P)]
    for p, theirs in enumerate(want):
        got = (out / f"part-{p:05d}").read_bytes()
        if schema.input_format == "binary":
            # a zero header of the input's length, then the records
            assert got == b"\x00" * part_schema.start_position + theirs.tobytes(), p
        else:
            rows = [tuple(map(int, line.split())) for line in got.decode().splitlines()]
            assert rows == theirs.tolist(), p


def partition_files_equal_the_oracle(papar, workflow, n, tmp_path, **backend):
    xml, schema_id = WORKFLOWS[workflow]
    schema = papar.schema(schema_id)
    records = records_for(schema, n, seed=11)
    write_input(tmp_path / "input", schema, records)
    out = tmp_path / "out"
    args = arguments(workflow, P, str(tmp_path / "input"), str(out))
    result = papar.partition_files(xml, args, **backend).result
    assert result.perf["output"]["mode"] == "in_place"
    part_schema, want = expected(papar, workflow, records, args)
    for p, theirs in enumerate(want):
        got = (out / f"part-{p:05d}").read_bytes()
        assert got == b"\x00" * part_schema.start_position + theirs.tobytes(), p


#: a budget whose deal window is 3 BLAST records (a quarter of it)
WINDOWED_BUDGET = 4 * 3 * 16


@pytest.mark.parametrize("workflow", ["blast", "blast-block"])
def test_a_budgeted_in_place_deal_equals_the_oracle(papar, workflow, tmp_path):
    """Windows of 3 positions over 58 records: neither is a multiple of
    P, so windows open mid-row, and the last (at 57) opens inside the last
    partial row (56 and 57); each piece is written at the slot its window
    names."""
    partition_files_equal_the_oracle(
        papar, workflow, 58, tmp_path, memory_budget=WINDOWED_BUDGET)


def test_mpi_part_files_equal_the_oracle(papar, tmp_path):
    """Three ranks cut 7 sorted records as 3, 2 and 2: the last rank's
    window opens at 5, inside the last partial row (4 to 6), and it writes
    its pieces in place at the slots that window names."""
    partition_files_equal_the_oracle(papar, "blast", 7, tmp_path, backend="mpi", num_ranks=3)


#: each shipped workflow and its input-data configuration, under configs/
SHIPPED = {"blast": ("blast_partition.xml", "blast_db.xml"),
           "hybrid_cut": ("hybrid_cut.xml", "graph_edge.xml")}


@pytest.mark.parametrize("workflow", sorted(SHIPPED))
def test_the_generated_partitioner_equals_the_oracle(papar, workflow, tmp_path, capsys):
    """The module ``repro codegen`` writes runs and deals what the oracle does."""
    import importlib.util

    from repro.cli import main

    configs = Path(__file__).resolve().parents[2] / "configs"
    workflow_xml, input_xml = SHIPPED[workflow]
    schema = papar.schema(WORKFLOWS[workflow][1])
    records = records_for(schema, 3 * P + 2, seed=3)
    write_input(tmp_path / "input", schema, records)
    args = arguments(workflow, P, str(tmp_path / "input"), str(tmp_path / "out"))
    generated = tmp_path / "generated.py"
    assert main(["codegen", "--workflow", str(configs / workflow_xml),
                 "--input-config", str(configs / input_xml),
                 *(f"--arg={name}={value}" for name, value in args.items()),
                 "-o", str(generated)]) == 0
    capsys.readouterr()
    assert "use_matrix" not in generated.read_text()
    spec = importlib.util.spec_from_file_location(f"generated_{workflow}", generated)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result = module.run(Dataset.from_array(schema, records.copy()))
    _, want = expected(papar, workflow, records, args)
    assert_same_partitions([part.to_flat().records for part in result.partitions], want)


@pytest.mark.parametrize("policy", ["cyclic", "block"])
def test_the_deal_matrix_is_each_policys_permutation(policy):
    """The oracle's matrix, applied to the entry-index vector, is the
    permutation the product applies in index form, whether or not P | n;
    when P | n, the cyclic one is the textbook ``L_{n/P}^n``."""
    product = get_policy(policy)
    for n in range(0, 14):
        for num_partitions in range(1, 6):
            deal = _oracle.deal_matrix(n, num_partitions, policy)
            assert np.array_equal(deal @ np.arange(n), product.permutation(n, num_partitions))
            assert _oracle.deal_counts(n, num_partitions, policy) == (
                product.counts(n, num_partitions).tolist())
            if policy == "cyclic" and n and n % num_partitions == 0:
                textbook = _oracle.stride_permutation_matrix(n, n // num_partitions)
                assert (deal != textbook).nnz == 0
