"""Process driving, hygiene checks, statistics and the host fingerprint.

The benchmark process drives exactly one child at a time (the real CLI in
a fresh interpreter), times it from outside, and afterwards checks that
the child left nothing behind: no process in its session, no ``pp*``
shared-memory segment, no ``papar-spill-*`` directory.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

#: the checkout this file lives in: benchmarks/e2e/harness.py -> repo root
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
CONFIG_DIR = REPO_ROOT / "configs"
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0
#: how long a child's helper processes may outlive it before they count as strays
EXIT_GRACE_S = 2.0
SHM_DIR = "/dev/shm"


def nproc() -> int:
    """CPUs this process may run on (what bounds ranks and connections)."""
    return len(os.sched_getaffinity(0))


# -- the work directory -------------------------------------------------------


@dataclass
class WorkDir:
    """Where one benchmark invocation keeps its files, inside the checkout.

    ``inputs/`` caches generated inputs across invocations; ``scratch`` (a
    ``papar-bench-*`` directory, never the ``pp*`` prefix the shm leak
    checks look for) holds outputs and the children's ``TMPDIR`` and is
    removed when the invocation ends.
    """

    root: str
    scratch: str = field(init=False)

    def __post_init__(self) -> None:
        self.scratch = os.path.join(self.root, f"papar-bench-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)

    @property
    def inputs(self) -> str:
        return os.path.join(self.root, "inputs")

    @property
    def tmp(self) -> str:
        return os.path.join(self.scratch, "tmp")

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def child_env(self) -> dict[str, str]:
        """The children's environment: ``PYTHONPATH=src`` and a private TMPDIR."""
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{extra}" if extra else str(SRC_DIR)
        env["TMPDIR"] = self.tmp
        return env


# -- children -----------------------------------------------------------------


def _processes() -> Iterator[tuple[int, bytes, int, int]]:
    """(pid, state, ppid, session id) of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                # "pid (comm) state ppid pgrp session ..." — comm may hold spaces
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        yield int(entry), fields[0], int(fields[1]), int(fields[3])


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) pids whose session id is ``sid``."""
    return [pid for pid, state, _, session in _processes() if state != b"Z" and session == sid]


def _kill(pids: Sequence[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants.

    A helper that outlives the child that started it (multiprocessing's
    resource tracker does) is then re-parented to the benchmark instead of
    to init, so the benchmark can wait for it; under an init that reaps
    nothing it would stay behind as a zombie.
    """
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_exited() -> None:
    """Collect every child that has already exited, without blocking."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def reap_session(sid: int) -> int:
    """Kill whatever still runs in session ``sid``; returns how many there were.

    Helpers that exit on their own once the leader is gone (multiprocessing's
    resource tracker reads EOF on its pipe) get ``EXIT_GRACE_S`` to do so.
    The leader must already have been waited for.
    """
    grace = time.monotonic() + EXIT_GRACE_S
    while (strays := _session_members(sid)) and time.monotonic() < grace:
        time.sleep(0.01)
    _kill(strays)
    deadline = time.monotonic() + 10.0
    while strays and _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    reap_exited()
    return len(strays)


def stop_children() -> None:
    """Stop and wait for every process this one still has as a child.

    The way out of the benchmark, on every path: the in-process probes of
    the traced run start multiprocessing's resource tracker, which only
    exits when told to, and an aborted round may leave a child behind.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None:
        try:
            tracker._stop()
        except (OSError, RuntimeError):
            pass
    me = os.getpid()
    grace = time.monotonic() + EXIT_GRACE_S
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        reap_exited()
        children = [pid for pid, _, ppid, _ in _processes() if ppid == me]
        if not children:
            return
        if time.monotonic() > grace:
            _kill(children)
        time.sleep(0.01)


@dataclass
class ChildResult:
    wall_s: float
    returncode: int
    stderr: str
    #: processes the child left running in its session (killed by us)
    strays: int


def run_child(cmd: Sequence[str], env: dict[str, str]) -> ChildResult:
    """Run ``cmd`` to completion in its own session and time it from outside."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        wall = time.perf_counter() - t0
    strays = reap_session(proc.pid)
    return ChildResult(wall, proc.returncode, err.decode("utf-8", "replace"), strays)


def python_cmd(*args: str) -> list[str]:
    """``python <args>`` with the interpreter that runs the benchmark."""
    return [sys.executable, *args]


# -- leftovers ----------------------------------------------------------------


def leftovers(work: WorkDir) -> set[str]:
    """Names of shm segments and spill directories that exist right now."""
    found = set()
    if os.path.isdir(SHM_DIR):
        found.update(f"{SHM_DIR}/{n}" for n in os.listdir(SHM_DIR) if n.startswith("pp"))
    found.update(
        os.path.join(work.tmp, n) for n in os.listdir(work.tmp)
        if n.startswith("papar-spill-")
    )
    return found


def left_behind(work: WorkDir, baseline: set[str]) -> Optional[str]:
    """A failure reason naming what appeared since ``baseline``, or None."""
    new = leftovers(work) - baseline
    return f"left behind: {', '.join(sorted(new))}" if new else None


# -- rusage -------------------------------------------------------------------


@dataclass
class Usage:
    """CPU seconds and minor faults of the children reaped between two reads."""

    user_s: float
    sys_s: float
    minor_faults: int

    @staticmethod
    def now() -> "Usage":
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return Usage(ru.ru_utime, ru.ru_stime, ru.ru_minflt)

    def since(self, earlier: "Usage") -> "Usage":
        return Usage(
            self.user_s - earlier.user_s,
            self.sys_s - earlier.sys_s,
            self.minor_faults - earlier.minor_faults,
        )


def children_peak_rss_mb() -> float:
    """``ru_maxrss`` of the largest child reaped so far, in MB (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- statistics ---------------------------------------------------------------


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, round(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def faster_half_mean(values: Sequence[float]) -> float:
    """Mean of the smaller half of ``values`` (of the single smallest of 1-3).

    Steadier than the minimum, which chases the host's rare fast windows,
    and blind to the slow half, where every other rep re-faults its memory
    from the hypervisor (README, "noise model").
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[: max(1, len(ordered) // 2)])


def best_of(fn, repeats: int) -> float:
    """Minimum wall seconds of ``repeats`` calls of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- the host -----------------------------------------------------------------


def calibrate() -> float:
    """``host.calib_s``: a fixed numpy stable sort plus a pure-python loop.

    Best of 5.  The work never changes, so a run whose calibration reads
    high was taken while the host was throttled or busy.
    """
    keys = np.random.default_rng(0).integers(0, 1 << 20, 1_000_000, dtype=np.int32)

    def work() -> None:
        np.argsort(keys, kind="stable")
        total = 0
        for i in range(200_000):
            total += i & 7

    return best_of(work, 5)


def fingerprint() -> dict[str, object]:
    """What the numbers were measured on."""
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": platform.release(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def require_parallelism(needed: int, what: str) -> Optional[str]:
    """A refusal message when ``what`` needs more CPUs than the host has."""
    if needed > nproc():
        return f"{what} needs {needed} CPUs but this host offers {nproc()}; refusing to oversubscribe"
    return None
