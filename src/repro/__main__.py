"""``python -m repro`` entry point.

A one-shot command (``lint``, ``explain``, ``plan``, ``codegen``, ``run``)
that returned an exit code ends at its last write: the ``atexit`` handlers
run (multiprocessing's exit hook, ``weakref.finalize`` callbacks, anything a
caller registered before ``runpy``), stdout and stderr are flushed, and the
process leaves through ``os._exit`` — without the interpreter's teardown
(module clean-up and a last garbage collection), which frees nothing the
operating system would not.  That is safe because a run releases what it
holds itself: parts are published or discarded by ``PartWriter``, the spill
directory is removed in ``MPIRuntime.execute``'s ``finally``, and the
process backend sweeps its shared memory before it returns.

``serve``, an exception escaping :func:`repro.cli.main` (argparse's
``--help`` and usage errors included) and a process with another live
thread keep the normal ``sys.exit``.  ``cli.main`` itself returns as it
always has, for callers that run it in-process.
"""

import atexit
import os
import sys

from repro.cli import main

#: the commands that end when their output is written (not ``serve``)
ONE_SHOT = frozenset({"lint", "explain", "plan", "codegen", "run"})


def _alone() -> bool:
    """Whether the main thread is the only Python thread left."""
    threading = sys.modules.get("threading")  # never imported: no threads
    return threading is None or threading.active_count() == 1


def _exit_now(code: int) -> None:
    """Run the ``atexit`` handlers, flush, and leave without teardown."""
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


code = main()
if sys.argv[1:2] and sys.argv[1] in ONE_SHOT and _alone():
    _exit_now(code)
sys.exit(code)
