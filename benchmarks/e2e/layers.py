"""The traced run: per-layer numbers measured from outside the program.

Nothing under ``src/`` knows about this file.  A layer (a package under
``src/repro/``) is measured by timing calls into its public functions on
the workload's own input, in two ways:

* **traced passes** replay what ``python -m repro run`` does, in the order
  the CLI does it, with a span around each call: parse the configs, lint,
  plan, read the input, run the plan (operator kernels are child spans of
  the run), write the part files.  A layer's self time is its span minus
  the interval its children cover;
* **probes** time functions that are not on this workload's path (the other
  backends, the exchange fabrics, the spill codec, the daemon's router), so
  a change that regresses them cannot go unseen.  Expensive probes run on
  a prefix of the input (``PROBE_RECORDS``).

Every timing is the minimum over a small fixed number of repeats, like the
end-to-end numbers it is compared with.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

import numpy as np

from harness import best_of, nearest_rank, python_cmd, run_child
from workloads import Measured, Prepared

#: probes of layers off the workload's path see at most this many records
#: (a text edge costs about twenty times a binary index record)
PROBE_RECORDS = {"blast": 500_000, "serve": 500_000, "hybrid": 25_000}
#: rows per append when the input is replayed through the daemon's router
ROUTE_BATCH_ROWS = 200
PASSES = 3
#: numbers only a live daemon can give; batch workloads report them as 0
SERVE_DAEMON_METRICS = (
    ("serve.rebuild_s", "s"), ("serve.append_p50_ms", "ms"), ("serve.append_p99_ms", "ms"),
    ("serve.append_max_ms", "ms"), ("serve.append_records_per_s", "1/s"),
    ("serve.rebalances", "count"), ("serve.coalesced_batches", "count"),
    ("serve.rejected", "count"),
)


class Spans:
    """The benchmark's own span recorder: kept in memory, written at the end.

    A span has a name, a start, an end, the span that caused it and the id
    of the pass (or daemon round) it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans), "run": self.run_id, "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def new_run(self) -> None:
        self.run_id += 1

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def best(self, name: str) -> float:
        """Minimum duration of the spans called ``name`` (0.0 when none ran)."""
        return min(self.durations(name), default=0.0)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the interval its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: str, meta: dict[str, Any]) -> None:
        own = self.self_times()
        spans = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "papar.bench.spans", "version": 1, **meta, "spans": spans}, fh)


@contextmanager
def traced_operators(plan: Any, spans: Spans) -> Iterator[None]:
    """Record a child span around every planned operator's ``apply_local``."""
    operators = [job.operator for job in plan.jobs]

    def wrap(op: Any, name: str) -> Callable:
        kernel = op.apply_local

        def apply_local(source: Any) -> Any:
            with spans.span(name):
                return kernel(source)

        return apply_local

    for job in plan.jobs:
        job.operator.apply_local = wrap(job.operator, f"ops.{job.operator_name.lower()}")
    try:
        yield
    finally:
        for op in operators:
            del op.apply_local


class Layers:
    """Measures every per-layer metric of one prepared workload."""

    def __init__(self, p: Prepared, spans: Spans, put: Callable[..., None]) -> None:
        from repro import PaPar

        self.p = p
        self.w = p.workload
        self.spans = spans
        self.args = p.workflow_args()
        self.input_config, self.workflow_file = p.config_files()
        #: the field the workflow sorts or groups by
        self.key = "vertex_b" if self.w.kind == "hybrid" else "seq_size"
        self.budget = self.w.memory_budget
        self.papar = PaPar()
        self.papar.register_input_file(self.input_config)
        self.spec = self.papar.load_workflow_file(self.workflow_file)
        self.plan = self.papar.plan(self.spec, self.args)
        #: put(name, value, unit="s") records one metric
        self.put = put
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- traced passes --------------------------------------------------------

    def traced_pass(self) -> None:
        """What ``repro run`` does after start-up, one span per public call."""
        from repro import PaPar
        from repro.core.files import load_input_dataset, write_partition_files

        w, spans, args = self.w, self.spans, self.args
        spans.new_run()
        shutil.rmtree(self.p.out_dir, ignore_errors=True)
        with spans.span("pass"):
            with spans.span("config.parse"):
                papar = PaPar()
                papar.register_input_file(self.input_config)
                spec = papar.load_workflow_file(self.workflow_file)
            with spans.span("analysis.lint"):
                # the arguments cli._lint_gate passes for ``run``
                papar.lint_files(
                    self.workflow_file, [self.input_config], args=args, ranks=w.ranks,
                    memory_budget=self.budget, backend=w.backend,
                )
            with spans.span("core.plan"):
                plan = papar.plan(spec, args)
            with spans.span("formats.read"):
                data, schema = load_input_dataset(papar, spec, args, memory_budget=self.budget)
            with traced_operators(plan, spans), spans.span("core.run"):
                result = papar.run(plan, args, data=data, backend=w.backend,
                                   num_ranks=w.ranks, memory_budget=self.budget)
            with spans.span("formats.write"):
                write_partition_files(self.p.out_dir, result, schema)
        self.attempted += 1
        reason = self.p.check(self.p.out_dir)
        if reason:
            self.failed += 1
            self.errors.append(f"traced pass: {reason}")
        self.result = result
        self.data = data

    def passes(self) -> None:
        for _ in range(PASSES):
            self.traced_pass()
        s = self.spans
        self.put("config.parse_s", s.best("config.parse"))
        self.put("analysis.lint_s", s.best("analysis.lint"))
        self.put("core.plan_s", s.best("core.plan"))
        self.put("formats.read_s", s.best("formats.read"))
        self.put("formats.write_s", s.best("formats.write"))
        in_mb = os.path.getsize(self.p.input_path) / 1e6
        out_mb = sum(
            os.path.getsize(os.path.join(self.p.out_dir, n)) for n in os.listdir(self.p.out_dir)
        ) / 1e6
        # under a budget the "read" only opens a chunked view: no rate to report
        self.put("formats.read_mb_per_s",
                 0.0 if self.budget else in_mb / s.best("formats.read"), "MB/s")
        self.put("formats.write_mb_per_s", out_mb / s.best("formats.write"), "MB/s")
        self.put("e2e.output_mb", out_mb, "MB")
        # counts of the workload's own run, as its PartitionResult reports them
        perf = self.result.extra.get("perf") or {}
        transport = perf.get("transport") or {}
        spill = perf.get("spill") or {}
        self.put("core.records_moved", perf.get("records_moved", 0), "count")
        self.put("core.bytes_moved", perf.get("bytes_moved", 0), "B")
        self.put("core.messages", self.result.messages, "count")
        for name in ("shm_bytes", "pickle_bytes", "inline_bytes"):
            self.put(f"core.{name}", transport.get(name, 0), "B")
        self.put("ooc.spilled_bytes", spill.get("spilled_bytes", 0), "B")
        self.put("ooc.runs_written", spill.get("runs_written", 0), "count")
        self.put("ooc.max_merge_fanin", spill.get("max_merge_fanin", 0), "count")

    # -- the backends ---------------------------------------------------------

    def own_backend_label(self) -> str:
        return "ooc" if self.budget else self.w.backend

    def _in_memory(self) -> Any:
        """The full input as an in-memory dataset (the ooc pass streams it)."""
        if not self.budget:
            return self.data
        from repro.core.files import load_input_dataset

        return load_input_dataset(self.papar, self.spec, self.args)[0]

    def backends(self) -> None:
        """``core.run_*_s``: every backend, the workload's own on the full input."""
        from repro.obs import Recorder

        full = self._in_memory()
        probe = full.take(np.arange(min(len(full), PROBE_RECORDS[self.w.kind])))
        papar, plan, args = self.papar, self.plan, self.args
        own = self.own_backend_label()
        self.put(f"core.run_{own}_s", self.spans.best("core.run"))

        if own != "serial":
            self.spans.new_run()
            with traced_operators(plan, self.spans):
                for _ in range(2):
                    with self.spans.span("core.run_serial"):
                        papar.run(plan, args, data=full)
            self.put("core.run_serial_s", self.spans.best("core.run_serial"))
        for op in ("sort", "group", "split", "distribute"):
            self.put(f"ops.{op}_s", self.spans.best(f"ops.{op}"))
        self.put(
            "obs.recorder_overhead_s",
            best_of(lambda: papar.run(plan, args, data=probe, recorder=Recorder()), 3)
            - best_of(lambda: papar.run(plan, args, data=probe), 3),
        )
        others = {
            "mpi": dict(backend="mpi", num_ranks=2),
            "mapreduce": dict(backend="mapreduce", num_ranks=2),
            "process": dict(backend="process", num_ranks=2),
            # half the probe's bytes, so that the probe spills
            "ooc": dict(memory_budget=probe.nbytes // 2),
        }
        for label, kwargs in others.items():
            if label != own:
                self.put(f"core.run_{label}_s",
                         best_of(lambda: papar.run(plan, args, data=probe, **kwargs), 2))
        self.probe = probe

    # -- function probes ------------------------------------------------------

    def kernels(self) -> None:
        """analysis, formats.pack, policies, mapreduce: one public call each."""
        from repro.formats import pack, unpack
        from repro.mapreduce.columnar import KVBatch, bucketize, group
        from repro.policies.permutation import cyclic_permutation_indices

        n_full, partitions = self.p.records, self.w.partitions
        records = self.probe.records
        schema = self.probe.schema
        keys = np.asarray(records[self.key])
        self.put("analysis.optimize_s",
                 best_of(lambda: self.papar.optimize(self.spec, self.args), 3))
        self.put("formats.pack_s", best_of(lambda: unpack(pack(records, schema, self.key)), 2))
        self.put("policies.permutation_s",
                 best_of(lambda: cyclic_permutation_indices(n_full, partitions), 2))
        owners = keys % partitions
        self.put("mapreduce.bucketize_s", best_of(lambda: bucketize(owners, partitions), 2))
        batch = KVBatch(keys=keys, values=records)
        self.put("mapreduce.group_s", best_of(lambda: group(batch), 2))

    def exchanges(self) -> None:
        """mpi: spawn cost and one alltoallv of the probe's bytes on each fabric."""
        from repro.mpi import run_mpi
        from repro.mpi.process_backend import run_mpi_processes

        payload = np.ascontiguousarray(self.probe.records).view(np.uint8)
        half = len(payload) // 2

        def exchange(comm: Any) -> int:
            # every rank sends half of the payload to each of the two ranks
            received, _ = comm.Alltoallv(payload, [half, len(payload) - half])
            return len(received)

        def noop(comm: Any) -> None:
            return None

        self.put("mpi.spawn_s", best_of(lambda: run_mpi_processes(noop, 2), 2))
        self.put("mpi.alltoallv_s", best_of(lambda: run_mpi(exchange, 2), 2))
        segments = []

        def over_shm() -> None:
            run = run_mpi_processes(exchange, 2)
            segments.append(run.extra["transport"]["segments_created"])

        self.put("mpi.shm_alltoallv_s", best_of(over_shm, 2))
        self.put("mpi.shm_segments_created", segments[-1], "count")

    def spill(self) -> None:
        """ooc: external sort, chunked read and the run-file codec on the probe."""
        from repro.ooc import (
            ChunkedDataset,
            MemoryBudget,
            OOCContext,
            RunReader,
            RunWriter,
            external_sort_chunks,
        )

        records = self.probe.records
        keys = np.asarray(records[self.key])
        budget = MemoryBudget.coerce(self.budget or records.nbytes // 2)
        chunk = budget.chunk_records(records.dtype.itemsize)
        spill_dir = tempfile.mkdtemp(prefix="probe-", dir=self.p.work.tmp)
        try:
            def extsort() -> None:
                ctx = OOCContext(budget, spill_dir)
                pieces = ((keys[i : i + chunk], records[i : i + chunk])
                          for i in range(0, len(records), chunk))
                external_sort_chunks(pieces, ctx, records.dtype, keys.dtype).sorted_values()

            self.put("ooc.extsort_s", best_of(extsort, 2))

            def chunked_read() -> None:
                # at most the probe's record count, straight from the input file
                data = ChunkedDataset(self.p.input_path, self.probe.schema, budget)
                for _ in data.slice_view(0, len(records)).chunks():
                    pass

            self.put("ooc.chunked_read_s", best_of(chunked_read, 2))
            run_path = os.path.join(spill_dir, "probe.run")

            def write_run() -> None:
                with RunWriter(run_path, records.dtype, keys.dtype) as writer:
                    for i in range(0, len(records), chunk):
                        writer.append(records[i : i + chunk], keys=keys[i : i + chunk])

            def read_run() -> None:
                for _ in RunReader(run_path).frames():
                    pass

            run_mb = (records.nbytes + keys.nbytes) / 1e6
            self.put("ooc.runfile_write_mb_per_s", run_mb / best_of(write_run, 2), "MB/s")
            self.put("ooc.runfile_read_mb_per_s", run_mb / best_of(read_run, 2), "MB/s")
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)

    def routing(self) -> None:
        """serve: the daemon's router and wire codec over the stream's batches."""
        from repro.serve import build_router, protocol

        batches = self.p.batches
        if not batches:  # a batch workload: replay the probe as 200-row appends
            rows = self.probe.records.tolist()
            batches = [rows[i : i + ROUTE_BATCH_ROWS]
                       for i in range(0, len(rows), ROUTE_BATCH_ROWS)]
        schema = self.probe.schema
        arrays = [schema.to_structured(rows) for rows in batches]
        log = [self.probe.records]

        def route() -> None:
            router = build_router(self.plan, schema, log, len(log[0]))
            for batch in arrays:
                router.route(batch)

        lines = [
            (json.dumps({"op": "append", "rows": rows}, separators=(",", ":")) + "\n").encode()
            for rows in batches
        ]

        def codec() -> None:
            for line in lines:
                request = protocol.decode_request(line)
                protocol.encode_response(
                    protocol.ok("append", records=len(request["rows"]), generation=0, total_records=0)
                )

        self.put("serve.route_s", best_of(route, 2))
        self.put("serve.protocol_s", best_of(codec, 2))


# -- fresh-interpreter probes ---------------------------------------------------


def cli_probes(p: Prepared, put: Callable[..., None]) -> None:
    """cli: what a fresh interpreter pays before ``repro`` touches a config."""
    env = p.work.child_env()
    count_path = p.work.path("modules.txt")
    counting_import = (
        "import repro.cli, sys; "
        f"open({count_path!r}, 'w').write(str(sum(m.split('.')[0] == 'repro' for m in sys.modules)))"
    )
    for name, args in (
        ("cli.import_s", ("-c", counting_import)),
        ("cli.help_s", ("-m", "repro", "--help")),
        ("cli.numpy_import_s", ("-c", "import numpy")),
    ):
        walls = []
        for _ in range(2):
            result = run_child(python_cmd(*args), env)
            if result.returncode == 0:
                walls.append(result.wall_s)
        put(name, min(walls, default=0.0))
    with open(count_path, encoding="ascii") as fh:
        put("cli.modules_imported", int(fh.read()), "count")


# -- the daemon's numbers ---------------------------------------------------------


def serve_metrics(m: Optional[Measured], put: Callable[..., None]) -> float:
    """serve.*: the best round's client latencies and ``--metrics`` document.

    Batch workloads start no daemon, so there these read 0.  Returns the
    best round's total rebuild seconds (for the attributed share).
    """
    values = dict.fromkeys((name for name, _ in SERVE_DAEMON_METRICS), 0.0)
    if m is not None and m.walls:
        best = min(range(len(m.walls)), key=m.walls.__getitem__)
        doc, latencies = m.daemon_docs[best], m.latencies_ms[best]
        values.update({
            "serve.rebuild_s": sum(e["wall_s"] for e in doc["server"]["rebalance_events"]),
            "serve.append_p50_ms": nearest_rank(latencies, 50),
            "serve.append_p99_ms": min(nearest_rank(lat, 99) for lat in m.latencies_ms),
            "serve.append_max_ms": max(latencies),
            "serve.append_records_per_s": doc["appended_records"] / m.walls[best],
            "serve.rebalances": doc["rebalances"],
            "serve.coalesced_batches": doc["coalesced_batches"],
            "serve.rejected": doc["rejected"],
        })
    for name, unit in SERVE_DAEMON_METRICS:
        put(name, values[name], unit)
    return values["serve.rebuild_s"]
