"""One traffic tally: what crossed a fabric is counted once, by the sending
rank's communicator, and ``PartitionResult.bytes_moved`` / ``messages`` are
that tally summed; the substrate the ranks run on is loaded before the plan
span opens, so its first import is not counted as launch."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import PaPar
from repro.config import EDGE_INPUT_XML
from repro.config.examples import HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.fault import MemoryCheckpointStore, RetryPolicy
from repro.formats import EDGE_LIST_SCHEMA
from repro.obs import Recorder

ARGS = {"input_file": "/in", "output_path": "/out", "num_partitions": 5, "threshold": 6}


def hybrid_data(n=200):
    rng = np.random.default_rng(5)
    targets = rng.zipf(1.8, size=n) % 30
    sources = rng.integers(30, 150, size=n)
    edges = sorted({(int(s), int(t)) for s, t in zip(sources, targets)})
    return Dataset.from_rows(EDGE_LIST_SCHEMA, edges)


def test_recovered_run_reports_the_traffic_it_is_priced_on():
    """A checkpoint-restored run reports every job's traffic, restored jobs
    included: the counts the run is priced on, not the last attempt's.

    Rank 1 crashes after the final deal, whose exchange it finishes only
    once every rank has started it, so every rank has committed the group
    and the split: the retry restores both, on every thread schedule."""
    papar = PaPar()
    papar.register_input(EDGE_INPUT_XML)
    data = hybrid_data()
    plain = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=data, backend="mpi", num_ranks=4)
    rec = Recorder()
    result = papar.run(
        HYBRID_CUT_WORKFLOW_XML, ARGS, data=data, backend="mpi", num_ranks=4,
        faults="crash:rank=1,job=2,when=after", checkpoint=MemoryCheckpointStore(),
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.01), recorder=rec,
    )
    assert result.extra["fault"]["recovered_jobs"] == ["group", "split"]
    assert result.bytes_moved == rec.counter_total("comm.sent_bytes")
    assert result.messages == plain.messages
    assert [p.rows() for p in result.partitions] == [p.rows() for p in plain.partitions]


SUBSTRATE_BEFORE_PLAN = textwrap.dedent(
    """
    import sys

    from repro import PaPar
    from repro.config import BLAST_INPUT_XML
    from repro.config.examples import BLAST_WORKFLOW_XML
    from repro.core.dataset import Dataset
    from repro.formats import BLAST_INDEX_SCHEMA
    from repro.obs import Recorder

    backend, module = sys.argv[1:]
    seen = []

    class Probe(Recorder):
        def span(self, name, *args, **kwargs):
            if name.startswith("plan:"):
                seen.append(module in sys.modules)
            return super().span(name, *args, **kwargs)

    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    rows = [(i, 40 + i, i, 40) for i in range(60)]
    data = Dataset.from_rows(BLAST_INDEX_SCHEMA, rows)
    args = {"input_path": "/in", "output_path": "/out", "num_partitions": 3}
    papar.run(BLAST_WORKFLOW_XML, args, data=data, backend=backend, num_ranks=2,
              recorder=Probe())
    print("LOADED" if seen == [True] else f"NOT LOADED {seen}")
    """
)


@pytest.mark.parametrize("backend, module", [
    ("mpi", "repro.mpi.launcher"),
    ("mapreduce", "repro.mpi.launcher"),
    ("process", "repro.mpi.process_backend"),
])
def test_substrate_is_loaded_before_the_plan_span(backend, module):
    """A fresh interpreter's first run: the launcher module is in
    ``sys.modules`` when the plan span opens."""
    proc = subprocess.run(
        [sys.executable, "-c", SUBSTRATE_BEFORE_PLAN, backend, module],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "LOADED"
