"""Rule registry and catalog for ``papar lint``.

Every diagnostic the analyzer can emit has a stable entry here: a ``PAPnnn``
code, a short kebab-case rule name, a default severity, a one-line summary,
and — for ``papar lint --explain PAPnnn`` — a longer description plus a
bad/good example pair.  ``docs/lint-rules.md`` is written against the same
vocabulary and the golden-diagnostics test suite pins each code's behavior.

Checkers are plain generator functions taking a
:class:`~repro.analysis.model.LintContext` and yielding
:class:`~repro.analysis.diagnostics.Diagnostic` objects; they are collected
by the :func:`checker` decorator, which records the codes each one can
emit, and run (all of them, in registration order) by the engine.  One
checker may emit several related codes.  The ``plan`` / ``run`` / ``serve``
gate acts on errors alone, so it runs only the checkers that can emit an
ERROR code (:func:`blocking_checkers`), and imports only the rule modules
that hold one; the others load when :data:`CHECKERS` is first asked for.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import Severity
from repro.errors import Record


class RuleSpec(Record):
    """Catalog entry of one diagnostic code (the machine-readable rule doc)."""

    code: str
    name: str
    severity: Severity
    summary: str
    #: longer prose shown by ``papar lint --explain <code>``
    description: str = ""
    #: a minimal configuration fragment that triggers the rule
    bad: str = ""
    #: the corrected fragment
    good: str = ""

    def explain_dict(self) -> dict:
        """The JSON form ``--explain --format json`` emits."""
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "summary": self.summary,
            "description": self.description or self.summary,
            "bad": self.bad,
            "good": self.good,
        }


#: every code the analyzer can emit, in catalog order
CATALOG: dict[str, RuleSpec] = {
    s.code: s
    for s in (
        # -- structure / syntax (PAP00x) ------------------------------------
        RuleSpec("PAP001", "xml-syntax", Severity.ERROR,
                 "the file is not well-formed XML or has the wrong root element",
                 "Workflow configurations are XML documents rooted at "
                 "<workflow>; anything else cannot be analyzed at all.",
                 "<worfklow id=\"w\">...</worfklow>",
                 "<workflow id=\"w\">...</workflow>"),
        RuleSpec("PAP002", "missing-attribute", Severity.ERROR,
                 "a required attribute or section is missing",
                 "Operators need id= and operator=, params need name=, and a "
                 "workflow needs an id and at least one operator.",
                 "<operator operator=\"Sort\">",
                 "<operator id=\"sort\" operator=\"Sort\">"),
        RuleSpec("PAP003", "duplicate-id", Severity.ERROR,
                 "an operator id, argument, or parameter is declared twice",
                 "Duplicate names are ambiguous: $refs and the runtime keep "
                 "only one of the declarations, silently dropping the other.",
                 "<operator id=\"s\" .../> <operator id=\"s\" .../>",
                 "<operator id=\"s1\" .../> <operator id=\"s2\" .../>"),
        RuleSpec("PAP004", "unknown-operator", Severity.ERROR,
                 "an operator type the planner does not know",
                 "Only registered operator types (Sort, Group, Split, "
                 "Distribute, ...) can be planned into jobs.",
                 "<operator id=\"s\" operator=\"Sortt\">",
                 "<operator id=\"s\" operator=\"Sort\">"),
        RuleSpec("PAP005", "unknown-addon", Severity.ERROR,
                 "an add-on operator name that is not registered",
                 "Group add-ons (count, sum, ...) come from a registry; a typo "
                 "means no attribute is computed.",
                 "<addon operator=\"cuont\" attr=\"indegree\"/>",
                 "<addon operator=\"count\" attr=\"indegree\"/>"),
        RuleSpec("PAP006", "addon-ignored", Severity.WARNING,
                 "an add-on attached to an operator that does not support add-ons",
                 "Only group operators evaluate add-ons; elsewhere the "
                 "declaration is silently ignored.",
                 "<operator id=\"s\" operator=\"Sort\"><addon .../></operator>",
                 "<operator id=\"g\" operator=\"Group\"><addon .../></operator>"),
        # -- $variable reference graph (PAP01x) ------------------------------
        RuleSpec("PAP010", "undefined-reference", Severity.ERROR,
                 "a $reference that no argument or earlier operator defines",
                 "Every $name must resolve to a workflow argument or an "
                 "earlier operator's output/attribute.",
                 "<param name=\"inputPath\" value=\"$inptu_path\"/>",
                 "<param name=\"inputPath\" value=\"$input_path\"/>"),
        RuleSpec("PAP011", "forward-reference", Severity.ERROR,
                 "a reference to an operator that has not run yet",
                 "Operators execute in document order; referencing a later "
                 "operator's output reads a path that does not exist yet.",
                 "<operator id=\"a\"><param value=\"$b.outputPath\"/></operator>"
                 " ... <operator id=\"b\">",
                 "declare operator b before the operator that references it"),
        RuleSpec("PAP012", "reference-cycle", Severity.ERROR,
                 "operators whose references form a cycle",
                 "A cycle in the $ref graph means no execution order can "
                 "satisfy the dataflow.",
                 "a reads $b.outputPath while b reads $a.outputPath",
                 "break the cycle so data flows strictly forward"),
        RuleSpec("PAP013", "unused-argument", Severity.WARNING,
                 "a declared workflow argument that nothing references",
                 "Dead arguments usually indicate a typo at the use site or a "
                 "leftover from an earlier revision.",
                 "<param name=\"threshold\" .../> never referenced",
                 "reference $threshold somewhere, or delete the argument"),
        RuleSpec("PAP014", "unknown-output-attribute", Severity.ERROR,
                 "a $opid.attr reference to an attribute the operator never produces",
                 "Operators expose outputPath (splits: outputPathList) and "
                 "group add-on attributes; anything else resolves to nothing.",
                 "<param value=\"$group.$indegres\"/>",
                 "<param value=\"$group.$indegree\"/>"),
        # -- record-schema type flow (PAP02x) --------------------------------
        RuleSpec("PAP020", "key-not-in-schema", Severity.ERROR,
                 "a sort/group/split key that names no field available at that stage",
                 "Keys must name a field of the input element or an attribute "
                 "appended by an earlier add-on; the type-flow analysis tracks "
                 "exactly what is available at each stage.",
                 "<param name=\"key\" value=\"seq_sizee\"/>",
                 "<param name=\"key\" value=\"seq_size\"/>"),
        RuleSpec("PAP021", "float-group-key", Severity.WARNING,
                 "grouping/hashing on a floating-point field is fragile",
                 "Float equality depends on rounding; two logically equal keys "
                 "can land in different groups.",
                 "<param name=\"key\" value=\"score\"/> with score: double",
                 "group on an integer field, or bucket the values first"),
        RuleSpec("PAP022", "split-threshold-type", Severity.ERROR,
                 "a split threshold that is not comparable with the key type",
                 "Comparing a string key against numeric thresholds, or an "
                 "integer key against fractional ones, can never route "
                 "records meaningfully.",
                 "key 'name' (string) with policy {&gt;=, 10},{&lt;, 10}",
                 "split on a numeric field such as a count attribute"),
        RuleSpec("PAP023", "split-coverage-gap", Severity.WARNING,
                 "split conditions that leave some key values unrouted",
                 "A record matching no condition aborts the run; conditions "
                 "should cover the whole key range.",
                 "policy=\"{&gt;, 10},{&lt;, 10}\" (10 itself unrouted)",
                 "policy=\"{&gt;=, 10},{&lt;, 10}\""),
        RuleSpec("PAP024", "addon-field-missing", Severity.ERROR,
                 "an add-on that aggregates a value field the schema does not have",
                 "Aggregating add-ons (sum, min, ...) read a value field per "
                 "record; it must exist in the element schema.",
                 "<addon operator=\"sum\" value=\"weigth\"/>",
                 "<addon operator=\"sum\" value=\"weight\"/>"),
        RuleSpec("PAP025", "boolean-literal", Severity.WARNING,
                 "a boolean parameter whose literal is not a recognized true/false",
                 "The runtime accepts a fixed set of true/false spellings and "
                 "rejects everything else at execution time.",
                 "<param name=\"ascending\" type=\"boolean\" value=\"yep\"/>",
                 "<param name=\"ascending\" type=\"boolean\" value=\"true\"/>"),
        # -- path wiring (PAP03x) -------------------------------------------
        RuleSpec("PAP030", "dead-output", Severity.WARNING,
                 "an operator output that no later job consumes",
                 "An output path nothing reads is wasted work, or — more "
                 "often — a mis-wired inputPath downstream.",
                 "<param name=\"outputPath\" value=\"/tmp/x\"/> never read",
                 "wire a later inputPath to $op.outputPath"),
        RuleSpec("PAP031", "output-collision", Severity.ERROR,
                 "two jobs writing the same output path",
                 "The second writer clobbers the first; every operator needs "
                 "a distinct output path.",
                 "two operators with outputPath=\"/tmp/x\"",
                 "give each operator its own output path"),
        RuleSpec("PAP032", "orphan-directory-input", Severity.ERROR,
                 "a directory input with zero producing jobs",
                 "A trailing-slash inputPath is a directory read over earlier "
                 "outputs; with no producer underneath it, the job reads "
                 "nothing.",
                 "<param name=\"inputPath\" value=\"/tmp/nothing/\"/>",
                 "point inputPath at an earlier operator's output directory"),
        RuleSpec("PAP033", "split-arity", Severity.ERROR,
                 "split condition count and outputPathList length disagree",
                 "Each split condition routes to exactly one output path; the "
                 "counts must match.",
                 "2 conditions with outputPathList=\"/tmp/a,/tmp/b,/tmp/c\"",
                 "declare exactly one output path per condition"),
        RuleSpec("PAP034", "split-policy-syntax", Severity.ERROR,
                 "a split policy string that does not parse",
                 "Split policies use the grammar {op, operand},... with op "
                 "in >=, <=, >, <, ==, !=.",
                 "policy=\"&gt;= 10\"",
                 "policy=\"{&gt;=, 10},{&lt;, 10}\""),
        RuleSpec("PAP035", "unknown-distribution-policy", Severity.ERROR,
                 "a distribution policy name that is not registered",
                 "Distribution policies come from a registry (cyclic, "
                 "roundRobin, block, graphVertexCut, ...).",
                 "<param name=\"distrPolicy\" value=\"roundRobbin\"/>",
                 "<param name=\"distrPolicy\" value=\"roundRobin\"/>"),
        RuleSpec("PAP036", "bad-partition-count", Severity.ERROR,
                 "numPartitions / num_reducers literal that is not an integer "
                 "in [1, 2^31 - 1]",
                 "Partition and reducer counts size real data structures; "
                 "zero, negative, or non-integer values cannot run.",
                 "<param name=\"numPartitions\" value=\"0\"/>",
                 "<param name=\"numPartitions\" value=\"4\"/>"),
        RuleSpec("PAP037", "unwirable-input", Severity.ERROR,
                 "a job input that matches outputs of two jobs, or a Distribute's partitions",
                 "A job reads every earlier output its inputPath names exactly "
                 "or as a directory. A path naming outputs of two jobs is "
                 "ambiguous, and a Distribute's output is the workflow's "
                 "product: no later job can consume its partitions.",
                 "<param name=\"inputPath\" value=\"$distr.outputPath\"/>",
                 "read the records the distribute read, or make the "
                 "distribute the last operator"),
        # -- resolved-plan checks (PAP04x) ----------------------------------
        RuleSpec("PAP040", "plan-failure", Severity.ERROR,
                 "the planner rejects the workflow for a reason no other rule caught",
                 "The linter probes the real planner with synthesized "
                 "arguments; a rejection no specific rule explains is "
                 "reported verbatim.",
                 "any configuration the strict planner refuses",
                 "fix the reported planner error"),
        RuleSpec("PAP041", "invalid-permutation", Severity.ERROR,
                 "a distribution policy that does not produce a valid permutation",
                 "The probed policy produced an assignment that is not a "
                 "permutation of the input positions.",
                 "a custom policy dropping or duplicating entries",
                 "make the policy a bijection over entry positions"),
        RuleSpec("PAP042", "reducer-mismatch", Severity.WARNING,
                 "collective schedules (num_reducers) inconsistent across jobs",
                 "Jobs exchanging data should agree on the reducer count, or "
                 "ranks idle / oversubscribe between stages.",
                 "num_reducers=\"2\" feeding num_reducers=\"5\"",
                 "use one reducer count across connected jobs"),
        RuleSpec("PAP043", "sort-tie-partitioning", Severity.INFO,
                 "equal sort keys are partitioned by input order downstream",
                 "Range partitioning breaks ties by input position; a "
                 "downstream distribute then depends on input order for equal "
                 "keys — deterministic, but worth knowing.",
                 "sort on a low-cardinality key feeding a distribute",
                 "sort on a higher-cardinality (or compound) key"),
        RuleSpec("PAP044", "ranks-exceed-partitions", Severity.WARNING,
                 "more ranks than partitions leaves ranks idle",
                 "With fewer partitions than ranks, the extra ranks receive "
                 "no data in the final stage.",
                 "--ranks 8 with numPartitions=4",
                 "use at least as many partitions as ranks"),
        # -- input-data configurations (PAP05x) ------------------------------
        RuleSpec("PAP050", "input-config-invalid", Severity.ERROR,
                 "an input-data configuration fails to parse or validate",
                 "Input-data configs declare the element schema; a broken one "
                 "disables all type-flow analysis.",
                 "<value name=\"seq_start\" type=\"integre\"/>",
                 "<value name=\"seq_start\" type=\"integer\"/>"),
        RuleSpec("PAP051", "input-config-unused", Severity.WARNING,
                 "an input-data configuration no workflow argument references",
                 "An input config whose id no argument names (via format=) is "
                 "dead weight, or the argument has a typo.",
                 "--input graph.xml with no format=\"graph_edge\" argument",
                 "add format=\"graph_edge\" to the input argument"),
        # -- out-of-core sizing (PAP06x) --------------------------------------
        RuleSpec("PAP060", "input-exceeds-memory-budget", Severity.WARNING,
                 "the estimated input size exceeds the declared memory budget "
                 "and no spill-capable operator is in the workflow",
                 "When the input cannot fit a rank's budget, the run must "
                 "spill; without a spill-capable operator it will OOM-abort.",
                 "--memory-budget 1MB with a 100MB input and no sort",
                 "raise the budget or let a sort/group stage spill"),
        RuleSpec("PAP061", "invalid-memory-budget", Severity.ERROR,
                 "the declared --memory-budget does not parse as a size",
                 "Budgets use the size grammar: '64MB', '512KiB', '1048576'.",
                 "--memory-budget furiously",
                 "--memory-budget 64MB"),
        # -- execution-backend fit (PAP07x) ----------------------------------
        RuleSpec("PAP070", "process-backend-faults", Severity.WARNING,
                 "fault injection is declared but backend='process' cannot "
                 "run it; the runtime will refuse the configuration",
                 "Simulated fault injection needs the deterministic threaded "
                 "fabric; forked processes take real faults instead.",
                 "--backend process --faults crash:0.1",
                 "use the threaded backend for fault injection"),
        RuleSpec("PAP071", "process-backend-oversubscribed", Severity.INFO,
                 "more process ranks than CPU cores; forked ranks will "
                 "time-slice instead of running in parallel",
                 "Process ranks map to real cores; oversubscribing trades "
                 "parallelism for context switching.",
                 "--backend process --ranks 64 on an 8-core host",
                 "keep ranks at or below the core count"),
        RuleSpec("PAP072", "process-backend-unguarded", Severity.INFO,
                 "a large process-backend run declares no checkpoint store; "
                 "a single worker crash restarts it from scratch",
                 "Long process-backend runs should checkpoint so a crashed "
                 "worker resumes from the committed job prefix.",
                 "a multi-GB process run without --checkpoint-dir",
                 "add --checkpoint-dir to the run"),
        RuleSpec("PAP073", "spmd-output-gathered", Severity.INFO,
                 "the final distribute's output is gathered to the driver and "
                 "written there, not written in place by the ranks",
                 "On the mpi, mapreduce and process backends each rank writes "
                 "its pieces of the part files where they belong when the "
                 "output is fixed-width binary and the final distribute deals "
                 "flat records of the input's own schema: a record's byte "
                 "offset in its part file follows from its position alone. A "
                 "text output has no such offset, a packed stream is unpacked "
                 "by the partition's owner, and records widened by a group "
                 "add-on do not fit the input's layout, so those runs ship "
                 "every partition to its owner rank and then to the driver, "
                 "which writes the files alone ('--stats' prints 'output: "
                 "gathered to the driver (<reason>)'). The physical plan the "
                 "runtimes dispatch on gives the reason. Advisory only: the "
                 "parts are byte-identical either way.",
                 "--backend process on hybrid_cut.xml (text edge list)",
                 "--backend process on blast_partition.xml (fixed-width binary "
                 "index, flat sort output): 'output: written in place by ranks'"),
        # -- optimization advisories (PAP08x) ---------------------------------
        RuleSpec("PAP080", "dead-operator", Severity.INFO,
                 "an operator whose outputs the final job never reads",
                 "The planner follows the final job's input back to the "
                 "workflow input; an operator off that chain feeds nothing "
                 "the partitions are made of: the whole stage — including its "
                 "exchange, if any — is wasted work. The planner skips exactly "
                 "these stages, and 'repro plan' lists each as 'elided:'.",
                 "a Sort stage whose output path no later operator reads",
                 "the planner skips it: the stage and its exchange never run; "
                 "delete it so the workflow says what runs"),
        RuleSpec("PAP081", "redundant-exchange", Severity.INFO,
                 "adjacent exchanges where the first shuffle's effect is discarded",
                 "Sort and group redistribute records by key range; a second "
                 "range exchange on the same key immediately after re-shuffles "
                 "everything, discarding the first exchange's layout, and one "
                 "exchange suffices. The planner skips the redundant one where "
                 "the survivor provably reproduces the exact byte order: "
                 "sort->sort with the same direction (drops the first), "
                 "sort->group (drops the sort), and a flat group->ascending "
                 "sort (drops the sort). Different keys, opposite directions "
                 "and a packed group are kept, because stable-sort tie order "
                 "depends on the dropped stage. (sort->distribute is never "
                 "redundant: distribute's position permutation preserves the "
                 "sorted order — the paper's canonical pipeline.)",
                 "a Sort stage feeding another Sort on the same key",
                 "the planner skips it: sort->sort on one key runs as the "
                 "second sort alone, reading the first sort's input"),
        RuleSpec("PAP084", "exchange-hotspot", Severity.INFO,
                 "a job of the declared SPMD run whose wire bytes exceed the "
                 "hotspot threshold",
                 "Priced from the physical plan the runtimes dispatch on: a "
                 "record exchange (a sort the ranks cannot cut, a group) or a "
                 "gathered deal ships records x the width of a shipped record, "
                 "a cut sort and an in-place deal ship none. Records come from "
                 "--assume-records or the size of a bound binary input file. "
                 "Stages above the threshold dominate the run and are the "
                 "first candidates for tuning (more ranks, narrower records, "
                 "combiners). Nothing applies it mechanically, and a dead "
                 "(PAP080) or redundant (PAP081) stage is never planned.",
                 "--backend mpi on a group over 2*10^7 16-byte edges "
                 "(305.2MB of records)",
                 "the planner skips the hotspot when it is wasted work (dead or "
                 "redundant); a sort of the input by a 32-bit key into an "
                 "in-place deal puts 0B of records on the wire"),
        # -- streaming-service fit (PAP09x) -----------------------------------
        RuleSpec("PAP090", "stream-unsafe-policy", Severity.WARNING,
                 "a serve workflow routes appends by arrival order, not by key",
                 "The streaming daemon routes incremental appends through the "
                 "last sort/group stage feeding the final distribute. With "
                 "neither, records are dealt by *position* (the permutation "
                 "policies are order-sensitive): which partition an appended "
                 "record lands in depends on when its batch arrived, and only "
                 "a full rebalance reconciles placement with the batch run.",
                 "a lone <operator operator=\"Distribute\"> served with "
                 "--serve and policy cyclic",
                 "put a Sort or Group stage before the distribute so appends "
                 "route by each record's own key"),
        # -- analyzer self-diagnosis ----------------------------------------
        RuleSpec("PAP099", "internal-error", Severity.ERROR,
                 "a lint rule crashed; please report the configuration",
                 "A checker raised instead of yielding diagnostics; the "
                 "analyzer caught it and kept running the remaining rules.",
                 "n/a (analyzer defect, not a configuration defect)",
                 "report the configuration that triggered it"),
    )
}

#: registered checker functions, in registration order; the gate's rule
#: modules register at import, the rest when ``CHECKERS`` is first asked for
_CHECKERS: list[Callable] = []


def checker(*codes: str) -> Callable[[Callable], Callable]:
    """Register a checker (a generator of diagnostics over a LintContext)
    that can emit exactly the catalogued ``codes``."""

    def register(func: Callable) -> Callable:
        func.codes = codes
        _CHECKERS.append(func)
        return func

    return register


def blocking_checkers() -> list[Callable]:
    """The registered checkers that can emit an ERROR finding, in order.

    A checker registered without declared codes counts as one: nothing
    says it cannot block.
    """
    return [
        func for func in _CHECKERS
        if not hasattr(func, "codes")
        or any(CATALOG[code].severity is Severity.ERROR for code in func.codes)
    ]


def all_codes() -> list[str]:
    """Every catalogued code, sorted."""
    return sorted(CATALOG)


def _load(every: bool = False) -> None:
    """Import the rule modules so their checkers register: the modules with
    a checker that can block always, and with ``every`` also the ones whose
    checkers only warn or inform (the gate never runs those)."""
    from repro.analysis.rules import ooc, paths, plan, references, schema_flow  # noqa: F401

    if every:
        from repro.analysis.rules import advisory, backend, serve  # noqa: F401


def __getattr__(name: str) -> list[Callable]:
    # ``CHECKERS`` is every registered checker: the full lint's list (one
    # list object, which tests may edit in place)
    if name != "CHECKERS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(every=True)
    return _CHECKERS


_load()

__all__ = [
    "CATALOG", "CHECKERS", "RuleSpec", "all_codes", "blocking_checkers", "checker",
]
