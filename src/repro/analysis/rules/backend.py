"""Execution-backend fit checks (PAP070-PAP073).

These rules only fire when the user *declares* the backend they intend to
run with (``papar lint --backend process``): PAP070 warns ahead of the
runtime's :class:`~repro.errors.ConfigError` when *fault injection* is
declared together with ``backend='process'`` (the injector's seeded draw
streams need the deterministic threaded fabric; checkpoint/retry recovery
is supported via gang-restart and does not trip this rule), PAP071 notes
when the intended rank count oversubscribes the machine's CPUs — forked
ranks compete for cores, so extra ranks add shuffle volume without adding
parallelism — and PAP072 advises checkpointing for large process-backend
runs, where a single worker crash otherwise restarts the whole gang from
scratch.  PAP073 applies to every SPMD backend: it says when a file-to-file
run's partitions will be gathered to the driver and written there instead of
being written in place by the ranks.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext
from repro.analysis.rules import checker


def available_cpus() -> Optional[int]:
    """CPU cores the process backend can actually use (patchable in tests)."""
    return os.cpu_count()


#: a process-backend run is "large" enough for the PAP072 checkpoint
#: advisory at this many ranks ...
LARGE_RUN_RANKS = 8
#: ... or this many assumed input records
LARGE_RUN_RECORDS = 1_000_000


#: the backends whose ranks can write the part files themselves
SPMD_BACKENDS = ("mpi", "mapreduce", "process")


@checker
def check_output_gathered(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP073: a final distribute whose output the ranks cannot write in place."""
    if ctx.backend not in SPMD_BACKENDS or ctx.model is None or not ctx.model.operators:
        return
    final = ctx.model.operators[-1]
    if final.kind != "distribute":
        return
    why = []
    schema, _ = ctx.input_schema()
    if schema is not None and schema.input_format == "text":
        why.append("text output")
    analyzed = ctx.analyzed()
    card = analyzed.card_of.get(final.id) if analyzed is not None else None
    if card is not None and card.packed:
        why.append("packed stream")
    if not why:
        return
    yield ctx.diag(
        "PAP073",
        f"the output of distribute {final.id!r} is gathered to the driver "
        f"({', '.join(why)}): on backend={ctx.backend!r} every partition "
        "crosses the fabric to its owner rank and then to the driver, which "
        "writes the part files alone",
        line=final.line,
        suggestion="advisory only, the parts are identical either way; the "
        "ranks write their pieces of the part files in place (one exchange "
        "fewer, nothing gathered) when the output is fixed-width binary and "
        "the distribute is fed flat records",
    )


@checker
def check_process_backend(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP070-PAP072: declared backend versus its runtime restrictions."""
    if ctx.backend != "process":
        return
    if ctx.faults:
        yield ctx.diag(
            "PAP070",
            "fault injection (--faults) is declared but backend='process' "
            "cannot run it: the injector's seeded draws need the "
            "deterministic threaded fabric, so the run will be refused",
            suggestion="use backend='mpi' for injected-chaos runs; "
            "checkpoint/retry recovery works on backend='process' via "
            "gang-restart",
        )
    cpus = available_cpus()
    if ctx.ranks is not None and cpus is not None and ctx.ranks > cpus:
        yield ctx.diag(
            "PAP071",
            f"{ctx.ranks} process ranks on a machine with {cpus} CPU "
            "core(s): forked ranks will time-slice instead of running in "
            "parallel",
            suggestion=f"use at most {cpus} ranks with backend='process', "
            "or backend='mpi' if the rank count models a larger cluster",
        )
    large = (ctx.ranks is not None and ctx.ranks >= LARGE_RUN_RANKS) or (
        ctx.assume_records is not None and ctx.assume_records >= LARGE_RUN_RECORDS
    )
    if large and not ctx.checkpoint:
        yield ctx.diag(
            "PAP072",
            "this is a large process-backend run with no checkpoint store "
            "declared: a single worker crash (OOM kill, segfault, hang) "
            "restarts the whole gang from scratch",
            suggestion="pass --checkpoint-dir (DiskCheckpointStore) so a "
            "gang-restart resumes from the committed job prefix",
        )
