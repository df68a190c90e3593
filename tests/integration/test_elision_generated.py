"""Generated workflows: the minimal plan partitions like the plan of every job.

Hypothesis draws chains of one to three sort/group jobs keyed on BLAST
index columns, sorts in both directions, an optional dead branch hanging
off any job of the chain, and a final distribute.  The planner may drop
the dead branch and any exchange its neighbour recreates; the parts of a
plain run must equal those of the hand-built plan that keeps every
declared job, on ``serial`` and ``mpi@2``.  A failure shrinks to the
smallest workflow that shows it, printed as XML.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PaPar
from repro.config import BLAST_INPUT_XML
from repro.core.dataset import Dataset
from repro.core.planner import Planner
from repro.formats import BLAST_INDEX_SCHEMA
from tests.integration._shapes import DESCENDING, distr_op, group_op, sort_op, wf

#: key columns: unique, some ties, many ties, all equal
KEYS = ["seq_start", "seq_size", "desc_size", "desc_start"]
ARGS = {"input_path": "/in", "output_path": "/out"}


def records(n=240, seed=11):
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    rows["seq_start"] = rng.permutation(n)
    rows["seq_size"] = rng.integers(10, 60, n)
    rows["desc_size"] = rng.integers(0, 4, n)
    return Dataset.from_array(BLAST_INDEX_SCHEMA, rows)


PAPAR = PaPar()
PAPAR.register_input(BLAST_INPUT_XML)
DATA = records()

job = st.tuples(st.sampled_from(["sort", "group"]), st.sampled_from(KEYS), st.booleans())


def operator(op_id, spec, source):
    kind, key, ascending = spec
    inp = "$input_path" if source is None else f"${source}.outputPath"
    if kind == "group":
        return group_op(op_id, inp, f"/user/{op_id}", key=key)
    return sort_op(op_id, inp, f"/user/{op_id}", key=key,
                   extra="" if ascending else DESCENDING)


@st.composite
def workflows(draw):
    chain = draw(st.lists(job, min_size=1, max_size=3))
    dead = draw(st.none() | st.tuples(st.integers(0, len(chain) - 1), job))
    ops = []
    for i, spec in enumerate(chain):
        ops.append(operator(f"j{i}", spec, f"j{i - 1}" if i else None))
        if dead is not None and dead[0] == i:
            ops.append(operator("dead", dead[1], f"j{i}"))
    policy = draw(st.sampled_from(["cyclic", "block"]))
    parts = draw(st.integers(1, 5))
    ops.append(distr_op("distr", f"$j{len(chain) - 1}.outputPath", "$output_path",
                        policy=policy, parts=str(parts)))
    return wf("".join(ops))


def partitions(plan, backend, ranks):
    result = PAPAR.run(plan, ARGS, data=DATA, backend=backend, num_ranks=ranks)
    return [p.to_flat().records.tobytes() for p in result.partitions]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(xml=workflows())
def test_the_minimal_plan_partitions_like_every_job(xml):
    spec = PAPAR.load_workflow(xml)
    minimal = PAPAR.plan(spec, ARGS)
    every_job = Planner()._plan_every_job(spec, ARGS)
    assert len(minimal.jobs) + len(minimal.elided) == len(every_job.jobs)
    for backend, ranks in (("serial", 1), ("mpi", 2)):
        assert partitions(minimal, backend, ranks) == partitions(every_job, backend, ranks), (
            f"{backend}@{ranks}: the minimal plan (dropping "
            f"{[e.op_id for e in minimal.elided]}) partitions differently:\n{xml}")
