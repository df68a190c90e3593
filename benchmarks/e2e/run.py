#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py --workload blast-serial --seed 1

generates the workload's input from the seed, drives the real CLI
(``python -m repro run|plan|serve`` with ``PYTHONPATH=src``) in a fresh
interpreter for a fixed number of reps, verifies every output, and prints
the end-to-end metrics; ``--trace 1`` makes the separate traced run that
yields the per-layer metrics and a span file.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md beside this file for the glossary and the noise model.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import harness
import layers
import workloads as wl
from harness import REPO_ROOT, SRC_DIR, WorkDir

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: fresh-interpreter ``repro plan`` children per untraced run (set-up time)
SETUP_REPS = 6


@dataclass
class Report:
    """Everything one workload run measured."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def put(self, name: str, value: float, unit: str = "s") -> None:
        self.metrics[name] = (float(value), unit)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()},
        })

    def print(self, label: str = "") -> None:
        kind = "per-layer (traced run)" if self.traced else "end-to-end"
        print(f"== {self.workload} seed {self.seed}: {kind} metrics{label} ==")
        for key, value in self.info.items():
            print(f"  {key}: {value}")
        width = max((len(n) for n in self.metrics), default=0)
        for name, (value, unit) in self.metrics.items():
            print(f"  {name.ljust(width)}  {value:14.6f} {unit}")
        print(f"  ops attempted {self.attempted}, failed {self.failed}")
        for err in self.errors:
            print(f"  ! {err}")


def traced_metrics(report: Report, p: Any, m: Any, work: WorkDir, host: dict) -> None:
    """The traced run: every per-layer metric, and the span file."""
    w = p.workload
    # layer timings are minima, so they are compared with the minimum rep
    wall_s, setup_s = min(m.walls), min(m.setups)
    spans = layers.Spans()
    lay = layers.Layers(p, spans, report.put)
    baseline = harness.leftovers(work)
    layers.cli_probes(p, report.put)
    lay.passes()
    lay.backends()
    lay.kernels()
    lay.exchanges()
    lay.spill()
    lay.routing()
    if w.kind == "serve":
        traced_round = wl.Measured()
        spans.new_run()
        wl.serve_round(p, work.child_env(), traced_round, spans)
        report.attempted += traced_round.attempted
        report.failed += traced_round.failed
        report.errors += traced_round.errors
        rebuild_s = layers.serve_metrics(m, report.put)
        attributed = (report.metrics["serve.route_s"][0]
                      + report.metrics["serve.protocol_s"][0] + rebuild_s)
        traced_wall = min(traced_round.walls, default=wall_s)
    else:
        layers.serve_metrics(None, report.put)
        own = f"core.run_{lay.own_backend_label()}_s"
        attributed = setup_s + sum(
            report.metrics[n][0] for n in ("formats.read_s", own, "formats.write_s"))
        traced_wall = setup_s + spans.best("pass")
    report.attempted += lay.attempted
    report.failed += lay.failed
    report.errors += lay.errors
    left = harness.left_behind(work, baseline)
    if left:
        report.failed += 1
        report.errors.append(f"traced run {left}")
    report.put("e2e.wall_median_s", statistics.median(m.walls))
    report.put("e2e.wall_p90_s", harness.nearest_rank(m.walls, 90))
    report.put("e2e.cpu_user_s", statistics.median(u.user_s for u in m.usages))
    report.put("e2e.cpu_sys_s", statistics.median(u.sys_s for u in m.usages))
    report.put("e2e.minor_faults", statistics.median(u.minor_faults for u in m.usages), "count")
    report.put("e2e.attributed_share", attributed / wall_s, "ratio")
    report.put("trace.overhead_s", traced_wall - wall_s)
    report.put("host.calib_s", harness.calibrate())
    trace_path = os.path.join(work.root, f"trace-{report.workload}-seed{report.seed}.json")
    spans.write(trace_path, {"workload": report.workload, "seed": report.seed, "host": host})
    report.info["span file"] = trace_path


def run_workload(name: str, work: WorkDir, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> Report:
    """Prepare, measure and verify one workload; traced or untraced."""
    w = wl.by_name(name)
    report = Report(name, seed, traced)
    refusal = harness.require_parallelism(w.cpus_needed, name)
    if refusal:
        report.errors.append(refusal)
        return report
    started = time.monotonic()
    host = harness.fingerprint()
    p = wl.prepare(w, work, seed, smoke)
    report.info["input"] = f"{p.records} records, sha256 {p.input_sha256}"
    deadline = time.monotonic() + 1.25 * seconds
    if smoke:
        reps = setup_reps = 1
    elif traced:
        reps, setup_reps = max(2, w.reps // 3), 2
    else:
        reps, setup_reps = wl.scaled(w.reps, seconds), SETUP_REPS
    if w.kind == "serve":
        m = wl.measure_serve(p, 1 if traced else reps, deadline)
    else:
        m = wl.measure_batch(p, reps, setup_reps, deadline)
    report.attempted, report.failed, report.errors = m.attempted, m.failed, list(m.errors)
    if not m.walls or not m.setups:
        return report
    report.info["wall reps (s)"] = " ".join(f"{x:.3f}" for x in m.walls)
    report.info["set-up reps (s)"] = " ".join(f"{x:.3f}" for x in m.setups)
    if traced:
        traced_metrics(report, p, m, work, host)
    else:
        report.put("wall_s", harness.faster_half_mean(m.walls))
        report.put("setup_s", harness.faster_half_mean(m.setups))
        report.put("peak_rss_mb", harness.children_peak_rss_mb(), "MB")
        report.info["wall min / median / p90 (s)"] = (
            f"{min(m.walls):.3f} / {statistics.median(m.walls):.3f} / "
            f"{harness.nearest_rank(m.walls, 90):.3f}"
        )
    host["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    report.info["host"] = json.dumps(host)
    report.info["whole run (s)"] = f"{time.monotonic() - started:.1f}"
    return report


def check_repeat(ns: argparse.Namespace) -> int:
    """Run every workload twice; fail when a metric moves by more than its bound.

    Each run is its own ``run.py`` process, as the driver makes them, so
    that ``peak_rss_mb`` (a maximum over the process's children) is not
    inherited from the previous workload.
    """
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    def one_run(name: str) -> dict[str, float]:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(ns.seed),
               "--seconds", str(ns.seconds), "--work-dir", ns.work_dir]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        if done.returncode != 0:
            return {}
        result = json.loads(done.stdout.strip().splitlines()[-1])
        return {n: m["value"] for n, m in result["metrics"].items()}

    exceeded = 0
    for w in wl.WORKLOADS:
        first, second = one_run(w.name), one_run(w.name)
        for name, bound in bounds.items():
            if name not in first or name not in second:
                print(f"repeat {w.name} {name}: a run failed")
                exceeded += 1
                continue
            worse = (second[name] - first[name]) / first[name]
            exceeded += worse > bound
            print(f"repeat {w.name} {name}: {first[name]:.4f} -> {second[name]:.4f} "
                  f"({worse:+.1%}, bound {bound:.0%}) {'EXCEEDED' if worse > bound else 'ok'}")
    return 1 if exceeded else 0


def smoke(work: WorkDir, seed: int) -> int:
    """All five workloads on tiny inputs, one rep each, with verification."""
    t0 = time.monotonic()
    ok = True
    for w in wl.WORKLOADS:
        report = run_workload(w.name, work, seed, wl.DEFAULT_SECONDS, traced=False, smoke=True)
        report.print(" [SMOKE: tiny input, one rep, numbers are not comparable]")
        ok &= report.correct
    print(f"smoke: {'ok' if ok else 'FAILED'} in {time.monotonic() - t0:.1f} s")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=wl.DEFAULT_SECONDS,
                        help="measuring time the fixed rep counts are scaled to (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics + span file)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run every workload twice and compare against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one rep, all workloads; non-comparable")
    parser.add_argument("--work-dir", default=str(REPO_ROOT / ".bench_work"),
                        help="where inputs, outputs and span files go (default: .bench_work "
                             "in the checkout)")
    ns = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file() or not harness.CONFIG_DIR.is_dir():
        print(f"error: {REPO_ROOT} holds no src/repro and configs/: the benchmark drives the "
              "repository's own CLI and cannot run without it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    harness.adopt_orphans()
    work = WorkDir(ns.work_dir)
    tempfile.tempdir = work.tmp  # in-process spill directories stay in the checkout too
    try:
        if ns.check_repeat:
            return check_repeat(ns)
        if ns.smoke:
            return smoke(work, ns.seed)
        if ns.workload not in [w.name for w in wl.WORKLOADS]:
            parser.error(f"--workload must be one of {', '.join(w.name for w in wl.WORKLOADS)}")
        report = run_workload(ns.workload, work, ns.seed, ns.seconds, bool(ns.trace))
        report.print()
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if ns.trace else "end_to_end"]
        if set(report.metrics) != {m["name"] for m in declared}:
            print("error: the metrics measured are not the ones BENCHMARK.json declares",
                  file=sys.stderr)
            return 1
        print(report.result_line())
        return 0 if report.correct else 1
    finally:
        harness.stop_children()
        shutil.rmtree(work.scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
