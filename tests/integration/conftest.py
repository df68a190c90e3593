"""Every run under ``tests/integration/`` takes the path its plan names.

The physical plan (:func:`repro.core.physical.physical_plan`) decides how
each job runs before the first one does, and each kernel reports the path
it actually ran in ``extra["perf"]["paths"]``: ``word_sort`` a ``cut``, the
range exchange ``records``, a serial sort ``narrow`` or ``records``, the
deal ``in place`` or ``gathered (<reason>)``.  An autouse fixture wraps
the one executor, so that every run these tests make also proves:

* **observed = planned** — each job's reported path is its planned
  choice's ``path``; a job restored from a checkpoint ran no kernel, so it
  reports none;
* **what spilled was planned to** — when a budget wrote run files, some
  job planned to spill that kind (``spill["narrow"]``: narrow key + row-id
  runs, else whole records).
"""

import functools

import pytest

from repro.core.runtime import MPIRuntime, run_plan


def checked(execute):
    """``execute`` that also checks its run against the run's physical plan
    (the SPMD one or the one-rank one, as the runtime's class says)."""

    @functools.wraps(execute)
    def run(self, plan, input_data, part_writer=None, output=None):
        planned = run_plan(plan, input_data, self.spmd, part_writer, output)
        result = execute(self, plan, input_data, part_writer, output)
        perf = result.extra["perf"]
        observed = perf.get("paths", {})
        restored = set(result.extra.get("fault", {}).get("recovered_jobs", ()))
        want = {op_id: choice.path for op_id, choice in planned.items()
                if choice.path is not None and op_id not in restored}
        assert {op_id: observed.get(op_id) for op_id in want} == want
        assert set(observed) <= set(want)
        spill = perf.get("spill", {})
        if spill.get("runs_written"):
            kind = "narrow" if spill.get("narrow") else "records"
            assert kind in {choice.spill for choice in planned.values()}, (kind, planned)
        return result

    return run


@pytest.fixture(autouse=True)
def observed_paths_are_planned(monkeypatch):
    """Wrap the one executor (every backend's ``execute`` ends in
    ``MPIRuntime.execute``)."""
    monkeypatch.setattr(MPIRuntime, "execute", checked(MPIRuntime.execute))
