"""The five workloads, and the untraced measurement of each.

A batch workload is one ``python -m repro run`` child per timed rep, from
configs + input on disk to verified ``part-NNNNN`` files on disk.  The
``serve-stream`` workload is one daemon child per round, driven by one
blocking client in a closed loop.  Rep counts are fixed per workload (and
scale with ``--seconds``), so a run is the same amount of work on every
commit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import inputs
import verify
from harness import (
    CONFIG_DIR,
    ChildResult,
    Usage,
    WorkDir,
    left_behind,
    leftovers,
    python_cmd,
    reap_session,
    run_child,
)

#: ``--seconds`` the rep counts below are sized for (BENCHMARK.json run_seconds)
DEFAULT_SECONDS = 20
#: a run never stops early with fewer timed reps than this
MIN_REPS = 3
HYBRID_THRESHOLD = 30
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hybrid_digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which generator, configs and oracle: "blast", "hybrid" or "serve"
    kind: str
    #: input records (edges for hybrid; warm + streamed records for serve)
    records: int
    smoke_records: int
    partitions: int
    #: timed reps (rounds for serve) at DEFAULT_SECONDS
    reps: int
    backend: str = "serial"
    ranks: int = 1
    memory_budget: Optional[str] = None
    #: serve only: records in the warm-start file, rows per append
    warm_records: int = 0
    batch_rows: int = 0

    @property
    def cpus_needed(self) -> int:
        """Ranks of the CLI child, or daemon + client for serve."""
        return 2 if self.kind == "serve" else self.ranks


WORKLOADS = [
    Workload(
        name="blast-serial",
        why="paper case study 1: 4M-record binary index, serial; start-up and the ops "
            "sort/distribute kernels do the work, text codec, lint probing and exchanges are bypassed",
        kind="blast", records=4_000_000, smoke_records=20_000, partitions=16, reps=9,
    ),
    Workload(
        name="hybrid-serial",
        why="paper case study 2: 255k-edge power-law text edge list, serial; the per-line text codec, "
            "group/pack/split and the lint gate's plan probing do the work, sort is bypassed",
        kind="hybrid", records=255_000, smoke_records=4_000, partitions=8, reps=6,
    ),
    Workload(
        name="blast-process",
        why="the blast-serial input through fork, supervisor, shm transport and the sample-sort "
            "exchange (2 ranks), all of which blast-serial bypasses: does parallel beat serial",
        kind="blast", records=4_000_000, smoke_records=20_000, partitions=16, reps=9,
        backend="process", ranks=2,
    ),
    Workload(
        name="blast-ooc",
        why="1M-record index under an 8MB budget: chunked read, run files and external merge, "
            "so a gain for the in-memory path that costs the spill path shows, and RSS is bounded",
        kind="blast", records=1_000_000, smoke_records=20_000, partitions=16, reps=9,
        memory_budget="8MB",
    ),
    Workload(
        name="serve-stream",
        why="the long-lived daemon: 200k warm start, then 4000 appends x 200 rows from one closed-loop "
            "client; imports paid once, rebuilds on a background thread, routing in serve/router.py",
        kind="serve", records=1_000_000, smoke_records=6_000, partitions=16, reps=4,
        warm_records=200_000, batch_rows=200,
    ),
]


def by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


# -- inputs and command lines ---------------------------------------------------


@dataclass
class Prepared:
    """A workload with its input on disk and its oracle in memory."""

    workload: Workload
    work: WorkDir
    records: int
    input_path: str
    input_sha256: str
    out_dir: str
    #: verify(out_dir) -> None or a reason
    check: Callable[[str], Optional[str]]
    #: serve only: records in the warm-start file, and the rows to append,
    #: one list per request
    warm_records: int = 0
    batches: list = field(default_factory=list)

    def config_files(self) -> tuple[str, str]:
        """The shipped (input-data config, workflow config) of this workload."""
        names = (("graph_edge.xml", "hybrid_cut.xml") if self.workload.kind == "hybrid"
                 else ("blast_db.xml", "blast_partition.xml"))
        return str(CONFIG_DIR / names[0]), str(CONFIG_DIR / names[1])

    def workflow_args(self) -> dict[str, str]:
        """The workflow's ``--arg`` bindings (also used for in-process calls)."""
        args = {"output_path": self.out_dir, "num_partitions": str(self.workload.partitions)}
        if self.workload.kind == "hybrid":
            args.update(input_file=self.input_path, threshold=str(HYBRID_THRESHOLD))
        else:
            args.update(input_path=self.input_path)
        return args

    def common_args(self) -> list[str]:
        """The config/argument flags ``plan``, ``run`` and ``serve`` share."""
        input_config, workflow = self.config_files()
        flags = ["--input-config", input_config, "--workflow", workflow]
        for name, value in self.workflow_args().items():
            flags += ["--arg", f"{name}={value}"]
        return flags

    def plan_cmd(self) -> list[str]:
        return python_cmd("-m", "repro", "plan", *self.common_args())

    def run_cmd(self) -> list[str]:
        w = self.workload
        cmd = python_cmd("-m", "repro", "run", *self.common_args(),
                         "--backend", w.backend, "--ranks", str(w.ranks))
        if w.memory_budget:
            cmd += ["--memory-budget", w.memory_budget]
        return cmd

    def serve_cmd(self, metrics_path: str) -> list[str]:
        return python_cmd("-m", "repro", "serve", *self.common_args(),
                          "--port", "0", "--metrics", metrics_path)


def prepare(w: Workload, work: WorkDir, seed: int, smoke: bool) -> Prepared:
    """Generate (or reuse) the input, hash it, and build the oracle. Untimed."""
    n = w.smoke_records if smoke else w.records
    out_dir = work.path("out")
    if w.kind == "hybrid":
        def write(path: str) -> None:
            inputs.write_edge_list(path, *inputs.edge_list(n, seed, HYBRID_THRESHOLD))

        path = inputs.cached(work.inputs, "edges", n, seed, write)
        edges = verify.read_edge_list(path, 2)
        sha = inputs.sha256_file(path)
        # the committed part digests apply when the input is byte-identical
        # to the one they were taken from (seed 1 at full size)
        with open(DIGEST_FILE, encoding="utf-8") as fh:
            committed = json.load(fh)
        digests = committed["parts"] if committed["input_sha256"] == sha else None

        def check(out: str) -> Optional[str]:
            return verify.verify_hybrid(out, edges, w.partitions, HYBRID_THRESHOLD, digests)

        return Prepared(w, work, n, path, sha, out_dir, check)

    def write(path: str) -> None:
        inputs.write_blast_index(path, inputs.blast_index(n, seed))

    path = inputs.cached(work.inputs, "index", n, seed, write)
    records = verify.read_blast_index(path)
    sha = inputs.sha256_file(path)
    if w.kind == "blast":
        expected = verify.blast_expected_parts(records, w.partitions)
        return Prepared(w, work, n, path, sha, out_dir,
                        lambda out: verify.verify_blast(out, expected))
    # serve: the daemon warm-starts from the head of the index, the client
    # streams the rest in arrival order
    warm = w.warm_records if not smoke else n // 5
    warm_path = work.path("warm.index")
    inputs.write_blast_index(warm_path, records[:warm])
    rows = records[warm:].tolist()
    batches = [rows[i : i + w.batch_rows] for i in range(0, len(rows), w.batch_rows)]
    expected = verify.blast_expected_parts(records[:warm], w.partitions)
    return Prepared(w, work, n, warm_path, sha, out_dir,
                    lambda out: verify.verify_blast(out, expected), warm, batches)


# -- batch measurement ----------------------------------------------------------


@dataclass
class Measured:
    """Raw observations of one workload's untraced reps."""

    walls: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    usages: list[Usage] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: serve only: per-round client latencies (ms) and daemon metrics documents
    latencies_ms: list[list[float]] = field(default_factory=list)
    daemon_docs: list[dict[str, Any]] = field(default_factory=list)

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        self.errors.append(reason)


def _child_failure(result: ChildResult) -> Optional[str]:
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {result.returncode}: {tail[0]}"
    if result.strays:
        return f"{result.strays} process(es) left running"
    return None


def run_rep(p: Prepared, env: dict[str, str], baseline: set[str]) -> tuple[ChildResult, Optional[str]]:
    """One ``repro run`` child: clean output dir, run, verify, check leftovers."""
    shutil.rmtree(p.out_dir, ignore_errors=True)
    result = run_child(p.run_cmd(), env)
    reason = _child_failure(result) or p.check(p.out_dir) or left_behind(p.work, baseline)
    return result, reason


def measure_batch(p: Prepared, reps: int, setup_reps: int, deadline: float) -> Measured:
    """Time ``plan`` (set-up) and ``run`` (wall) children; verify every run.

    No rep is thrown away as a warm-up: the reported statistic is the mean
    of the faster half, where a cold first rep does not land.
    """
    m = Measured()
    env = p.work.child_env()
    baseline = leftovers(p.work)
    for _ in range(setup_reps):
        result = run_child(p.plan_cmd(), env)
        reason = _child_failure(result)
        if reason:
            m.errors.append(f"plan: {reason}")
        else:
            m.setups.append(result.wall_s)
    for rep in range(reps):
        if rep >= MIN_REPS and time.monotonic() > deadline:
            m.errors.append(f"stopped after {rep} of {reps} reps: time budget exhausted")
            break
        before = Usage.now()
        result, reason = run_rep(p, env, baseline)
        m.attempted += 1
        if reason:
            m.fail(1, f"rep {rep}: {reason}")
            continue
        m.walls.append(result.wall_s)
        m.usages.append(Usage.now().since(before))
    return m


# -- serve measurement ----------------------------------------------------------


def serve_round(p: Prepared, env: dict[str, str], m: Measured, spans: Any = None) -> None:
    """One daemon lifetime: launch, stream every batch, query, drain, verify.

    With ``spans`` (the traced run's recorder) every append is one span.
    """
    from repro.serve.client import ServeClient

    span = spans.span if spans is not None else (lambda name: nullcontext())

    metrics_path = p.work.path("serve-metrics.json")
    shutil.rmtree(p.out_dir, ignore_errors=True)
    appended = sum(len(b) for b in p.batches)
    m.attempted += len(p.batches)
    t_launch = time.perf_counter()
    proc = subprocess.Popen(p.serve_cmd(metrics_path), env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        line = proc.stdout.readline().decode("utf-8", "replace")
        setup_s = time.perf_counter() - t_launch
        if not line.startswith("serving on "):
            proc.kill()
            err = proc.communicate()[1].decode("utf-8", "replace").strip().splitlines()[-1:]
            m.fail(len(p.batches), f"daemon never announced its port: {err or line!r}")
            return
        host, port = line.split()[-1].rsplit(":", 1)
        latencies = []
        ok = 0
        with ServeClient(host, int(port), timeout=60.0) as client:
            t_first = time.perf_counter()
            for rows in p.batches:
                with span("client.append"):
                    t0 = time.perf_counter()
                    response = client.append(rows)
                    latencies.append((time.perf_counter() - t0) * 1e3)
                ok += bool(response.get("ok"))
            query = client.query()
            client.drain()
            wall_s = time.perf_counter() - t_first
        proc.communicate(timeout=60.0)
    except Exception as exc:  # a dead daemon surfaces as socket/timeout errors
        proc.kill()
        proc.communicate()
        m.fail(len(p.batches), f"round aborted: {exc!r}")
        return
    finally:
        strays = reap_session(proc.pid)
    if proc.returncode != 0:
        reason = f"daemon exit code {proc.returncode}"
    elif strays:
        reason = f"{strays} process(es) left running"
    elif ok != len(p.batches):
        reason = f"{len(p.batches) - ok} append(s) refused"
    else:
        with open(metrics_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        reason = verify.verify_serve(query, doc, p.warm_records, appended)
    if reason:
        m.fail(len(p.batches), reason)
        return
    m.walls.append(wall_s)
    m.setups.append(setup_s)
    m.latencies_ms.append(latencies)
    m.daemon_docs.append(doc)


def measure_serve(p: Prepared, rounds: int, deadline: float) -> Measured:
    """``rounds`` fresh daemons, each fed the whole stream by one closed-loop client."""
    m = Measured()
    env = p.work.child_env()
    baseline = leftovers(p.work)
    for rnd in range(rounds):
        if rnd >= 1 and time.monotonic() > deadline:
            m.errors.append(f"stopped after {rnd} of {rounds} rounds: time budget exhausted")
            break
        before = Usage.now()
        walls = len(m.walls)
        serve_round(p, env, m)
        if len(m.walls) > walls:
            m.usages.append(Usage.now().since(before))
        left = left_behind(p.work, baseline)
        if left:
            m.fail(1, left)
    return m


def scaled(count: int, seconds: float) -> int:
    """A rep count sized for DEFAULT_SECONDS, scaled to ``seconds``."""
    return max(1, round(count * seconds / DEFAULT_SECONDS))
