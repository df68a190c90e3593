"""The records the start-up path defines without ``@dataclass``.

Creating a dataclass compiles each generated method with its own ``exec``
(and importing ``dataclasses`` pulls in ``inspect``); the records a
command builds at start-up are instead :class:`repro.errors.Record`
subclasses — immutable, every field compared — or plain classes with
hand-written methods (a tracer's ``Span``, off the start-up path, stays a
``NamedTuple``).  These tests pin that the conversion kept what the
dataclasses gave: value equality
(and its hash) over the same fields, immutability, and pickles — a
snapshot or checkpoint written before the conversion still loads, and one
written after is byte-identical.
"""

import io
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.diagnostics import Diagnostic, LintResult, Severity
from repro.analysis.explain import ExplainReport
from repro.analysis.ir import IRNode, PlanIR
from repro.analysis.locate import SourcePosition
from repro.analysis.model import LintContext, Reference, SymbolicEnv
from repro.analysis.rules import RuleSpec
from repro.config.workflow import (
    AddOnSpec, Bindings, Edge, JobIO, OperatorSpec, ParamSpec, WorkflowSpec,
)
from repro.core.dataset import Dataset
from repro.core.files import FilePartitionResult
from repro.core.perf import PerfCounters
from repro.core.physical import Physical, _Stream
from repro.core.planner import ElidedJob, PlannedJob, WorkflowPlan
from repro.core.runtime import PartitionResult, _InlineRun
from repro.formats.packed import pack
from repro.formats.records import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, Field, RecordSchema
from repro.obs.span import Span
from repro.ooc.budget import MemoryBudget
from repro.ooc.spill import SpillStats
from repro.policies.split_policy import SplitCondition

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _hadoop import InputSplit  # the Hadoop mapping is the benchmarks' own
finally:
    sys.path.pop(0)


def _schema():
    return RecordSchema("s", (Field("a", "integer"), Field("b", "long")), start_position=8)


def _operator(line=None):
    return OperatorSpec("g", "Group", {"key": ParamSpec("key", value="a")},
                        [AddOnSpec("count", attr="n")], {"num_reducers": "2"}, line=line)


#: (make, hashable, frozen): ``make()`` builds a new record with the same
#: fields on every call
VALUE_RECORDS = {
    "SourcePosition": (lambda: SourcePosition(3, 7), True, True),
    "Edge": (lambda: Edge("sort", 0, "distr", "/tmp/sort"), True, True),
    "Reference": (lambda: Reference("sort.outputPath", None, "inputPath", 4), True, True),
    "Diagnostic": (lambda: Diagnostic("PAP004", Severity.ERROR, "m", "w.xml", 3, 1, "r", "s"),
                   True, True),
    "RuleSpec": (lambda: RuleSpec("PAP004", "unknown-operator", Severity.ERROR, "s"), True, True),
    "ElidedJob": (lambda: ElidedJob("sort1", "PAP081", "why"), True, True),
    "Physical": (lambda: Physical("cut", "narrow", width=16), True, True),
    "_Stream": (lambda: _Stream(_schema(), packed=True), True, True),
    "Span": (lambda: Span(1, None, "job", "job", 0, 0.5, 2.5, {"n": 3}), False, True),
    "ParamSpec": (lambda: ParamSpec("key", "String", "a", None), True, True),
    "AddOnSpec": (lambda: AddOnSpec("count", "b", "n", "a"), True, True),
    "Field": (lambda: Field("a", "integer"), True, True),
    "RecordSchema": (_schema, True, True),
    "InputSplit": (lambda: InputSplit("f", 0, 10), True, True),
    "SplitCondition": (lambda: SplitCondition(">=", 30.0), True, True),
    "OperatorSpec": (_operator, False, False),
    "WorkflowSpec": (lambda: WorkflowSpec("w", "n", {"k": ParamSpec("k")}, [_operator()]),
                     False, False),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_a_converted_record_keeps_its_value_semantics(name):
    make, hashable, frozen = VALUE_RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    attr = next(iter(vars(a))) if hasattr(a, "__dict__") else a._fields[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(b, attr))
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("make, ignored", [
    (lambda **kw: ParamSpec("key", value="a", **kw), {"line": 9}),
    (lambda **kw: AddOnSpec("count", attr="n", **kw), {"line": 9}),
    (lambda **kw: _operator(**kw), {"line": 9}),
    (lambda **kw: WorkflowSpec("w", "n", **kw), {"source_file": "w.xml", "line": 9}),
])
def test_a_field_that_was_not_compared_still_is_not(make, ignored):
    assert make() == make(**ignored)
    if type(make()).__hash__ is not None:
        assert hash(make()) == hash(make(**ignored))


def test_a_changed_field_makes_records_unequal():
    assert Field("a", "integer") != Field("a", "long")
    assert ParamSpec("k", value="1") != ParamSpec("k", value="2")
    assert _schema() != _schema().with_field("c")


def _packed():
    return pack(EDGE_LIST_SCHEMA.to_structured([(1, 2), (3, 2)]), EDGE_LIST_SCHEMA, "vertex_b")


#: converted records that now compare by identity: no code or test
#: compared two of them (their dataclass ``==`` held arrays, a
#: ``Bindings`` or mutable stages, and was never called by the suite)
IDENTITY_RECORDS = {
    "JobIO": lambda: JobIO("a", "sort", None, None, ["/tmp/a"], None, []),
    "LintContext": lambda: LintContext("w.xml", None),
    "LintResult": LintResult,
    "IRNode": lambda: IRNode("a", "sort", OperatorSpec("a", "Sort"), 0),
    "PlanIR": lambda: PlanIR("w", [], [], SymbolicEnv()),
    "ExplainReport": lambda: ExplainReport("w", None),
    "PlannedJob": lambda: PlannedJob("a", "Sort", None, None),
    "WorkflowPlan": lambda: WorkflowPlan("w", [], Bindings()),
    "Dataset": lambda: Dataset(EDGE_LIST_SCHEMA, EDGE_LIST_SCHEMA.to_structured([(1, 2)])),
    "PerfCounters": PerfCounters,
    "PartitionResult": lambda: PartitionResult([]),
    "FilePartitionResult": lambda: FilePartitionResult(PartitionResult([])),
    "_InlineRun": lambda: _InlineRun([]),
    "MemoryBudget": lambda: MemoryBudget("1MB"),
    "SpillStats": SpillStats,
    "PackedRecords": _packed,
}


@pytest.mark.parametrize("name", sorted(IDENTITY_RECORDS))
def test_a_converted_container_compares_by_identity(name):
    a, b = IDENTITY_RECORDS[name](), IDENTITY_RECORDS[name]()
    assert a == a and a != b and hash(a) != hash(b)
    a.note = "mutable"


class _NoArrays(pickle.Pickler):
    """Pickles an ndarray as a reference, so the bytes do not depend on numpy."""

    def persistent_id(self, obj):
        return "ndarray" if isinstance(obj, np.ndarray) else None


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    _NoArrays(buf, protocol=4).dump(obj)
    return buf.getvalue()


#: protocol-4 pickles written by the ``@dataclass`` versions of these records
PICKLED_BEFORE = {
    "field": bytes.fromhex(
        "8004954e000000000000008c15726570726f2e666f726d6174732e7265636f726473948c05466965"
        "6c649493942981947d94288c046e616d65948c087365715f73697a65948c0474797065948c07696e"
        "74656765729475622e"),
    "blast": bytes.fromhex(
        "80049513010000000000008c15726570726f2e666f726d6174732e7265636f726473948c0c526563"
        "6f7264536368656d619493942981947d94288c026964948c08626c6173745f6462948c066669656c"
        "6473942868008c054669656c649493942981947d94288c046e616d65948c097365715f7374617274"
        "948c0474797065948c07696e746567657294756268092981947d9428680c8c087365715f73697a65"
        "94680e680f756268092981947d9428680c8c0a646573635f737461727494680e680f756268092981"
        "947d9428680c8c09646573635f73697a6594680e680f756274948c0c696e7075745f666f726d6174"
        "948c0662696e617279948c0e73746172745f706f736974696f6e944b208c0a64656c696d69746572"
        "73942975622e"),
    "edge": bytes.fromhex(
        "800495de000000000000008c15726570726f2e666f726d6174732e7265636f726473948c0c526563"
        "6f7264536368656d619493942981947d94288c026964948c0a67726170685f65646765948c066669"
        "656c64739468008c054669656c649493942981947d94288c046e616d65948c087665727465785f61"
        "948c0474797065948c046c6f6e6794756268092981947d9428680c8c087665727465785f6294680e"
        "680f756286948c0c696e7075745f666f726d6174948c0474657874948c0e73746172745f706f7369"
        "74696f6e944b008c0a64656c696d6974657273948c0109948c010a94869475622e"),
    "dataset": bytes.fromhex(
        "80049564010000000000008c12726570726f2e636f72652e64617461736574948c07446174617365"
        "749493942981947d94288c06736368656d61948c15726570726f2e666f726d6174732e7265636f72"
        "6473948c0c5265636f7264536368656d619493942981947d94288c026964948c08626c6173745f64"
        "62948c066669656c6473942868068c054669656c649493942981947d94288c046e616d65948c0973"
        "65715f7374617274948c0474797065948c07696e7465676572947562680f2981947d942868128c08"
        "7365715f73697a6594681468157562680f2981947d942868128c0a646573635f7374617274946814"
        "68157562680f2981947d942868128c09646573635f73697a659468146815756274948c0c696e7075"
        "745f666f726d6174948c0662696e617279948c0e73746172745f706f736974696f6e944b208c0a64"
        "656c696d6974657273942975628c077265636f726473948c076e64617272617994518c067061636b"
        "6564944e75622e"),
}


def test_pickles_are_byte_identical_to_the_dataclasses():
    dataset = Dataset.from_rows(BLAST_INDEX_SCHEMA, [(0, 5, 0, 3), (5, 7, 3, 2)])
    BLAST_INDEX_SCHEMA.dtype  # a built dtype stays out of the pickle
    assert pickle.dumps(Field("seq_size", "integer"), protocol=4) == PICKLED_BEFORE["field"]
    assert pickle.dumps(BLAST_INDEX_SCHEMA, protocol=4) == PICKLED_BEFORE["blast"]
    assert pickle.dumps(EDGE_LIST_SCHEMA, protocol=4) == PICKLED_BEFORE["edge"]
    assert _dumps(dataset) == PICKLED_BEFORE["dataset"]


def test_pickles_of_the_dataclasses_still_load():
    assert pickle.loads(PICKLED_BEFORE["field"]) == Field("seq_size", "integer")
    schema = pickle.loads(PICKLED_BEFORE["blast"])
    assert schema == BLAST_INDEX_SCHEMA and schema.dtype == BLAST_INDEX_SCHEMA.dtype
    assert pickle.loads(PICKLED_BEFORE["edge"]) == EDGE_LIST_SCHEMA
    records = BLAST_INDEX_SCHEMA.to_structured([(0, 5, 0, 3)])
    dataset = pickle.Unpickler(io.BytesIO(PICKLED_BEFORE["dataset"]))
    dataset.persistent_load = lambda pid: records
    dataset = dataset.load()
    assert dataset.schema == BLAST_INDEX_SCHEMA and dataset.records is records
    assert dataset.packed is None
