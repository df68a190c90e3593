"""One routing rule per exchange, on every backend.

A distribution policy states its positional rule once
(``DistributionPolicy.pieces``) and every dealer — the serial operator, the
SPMD executor in memory and through run files, the ``serve`` router — calls
it, so each cell of policy × backend × budget × stream shape is either
row-identical to ``serial`` or refused with the one classified error before
any exchange runs.  A policy defined by its permutation alone is the
refused kind, whatever name it inherits.
"""

import asyncio
import glob
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PaPar
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.core.runtime import MPIRuntime
from repro.errors import PolicyError
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, write_binary
from repro.policies.distr import (
    _POLICIES,
    CyclicPolicy,
    DistributionPolicy,
    get_policy,
    register_policy,
)
from repro.policies.permutation import cyclic_permutation_indices, partition_counts
from repro.serve import ServeConfig, run_server

BACKENDS = ("serial", "mpi", "mapreduce", "process")
RANKS = 3
#: small enough that the flat stream of either workflow goes through run files
SPILLING_BUDGET = 1024


class Mirrored(DistributionPolicy):
    """Cyclic dealing from the last partition down, *with* its positional rule."""

    name = "mirrored"

    def permutation(self, n, num_partitions):
        return np.concatenate(
            [
                np.arange(num_partitions - 1 - p, n, num_partitions, dtype=np.int64)
                for p in range(num_partitions)
            ]
        )

    def counts(self, n, num_partitions):
        return partition_counts(n, num_partitions, "cyclic")[::-1].copy()

    def pieces(self, total, num_partitions, g0, m):
        for j in range(min(num_partitions, m)):
            slot, r = divmod(g0 + j, num_partitions)
            yield num_partitions - 1 - r, slot, slice(j, None, num_partitions)


class LastFirst(DistributionPolicy):
    """A fresh-named policy that defines itself by its permutation alone."""

    name = "lastFirst"

    def permutation(self, n, num_partitions):
        return cyclic_permutation_indices(n, num_partitions)[::-1].copy()

    def counts(self, n, num_partitions):
        return partition_counts(n, num_partitions, "cyclic")[::-1].copy()


class Reversed(CyclicPolicy):
    """Overrides the permutation but keeps the inherited ``name = "cyclic"``."""

    def permutation(self, n, num_partitions):
        return super().permutation(n, num_partitions)[::-1].copy()

    def counts(self, n, num_partitions):
        return super().counts(n, num_partitions)[::-1].copy()


REGISTERED = {"mirrored": Mirrored, "lastFirst": LastFirst, "reversed": Reversed}
POSITIONAL = ("cyclic", "roundRobin", "block", "graphVertexCut", "mirrored")
PERMUTATION_ONLY = ("lastFirst", "reversed")


@pytest.fixture(scope="module", autouse=True)
def registered_policies():
    for name, factory in REGISTERED.items():
        register_policy(name, factory)
    yield
    for name in REGISTERED:
        del _POLICIES[name.lower()]


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


def blast_data(n, seed=31):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    arr["seq_start"] = np.arange(n)
    arr["seq_size"] = rng.integers(10, 60, n)  # many ties
    arr["desc_start"] = np.arange(n)
    arr["desc_size"] = 40
    return Dataset.from_array(BLAST_INDEX_SCHEMA, arr)


def edge_data(n=3000, seed=37):
    rng = np.random.default_rng(seed)
    edges = sorted(
        {
            (int(s), int(t))
            for s, t in zip(rng.integers(0, 400, n), rng.zipf(1.8, size=n) % 60)
        }
    )
    return Dataset.from_rows(EDGE_LIST_SCHEMA, edges)


#: stream shape -> (workflow with a ``@POLICY@`` hole, args, data)
SHAPES = {
    # one flat stream: sort -> distribute
    "flat": (
        BLAST_WORKFLOW_XML.replace('value="roundRobin"', 'value="@POLICY@"'),
        {"input_path": "/in", "output_path": "/out", "num_partitions": 5},
        blast_data(700),
    ),
    # two split streams, one flat and one packed: group -> split -> distribute
    "split": (
        HYBRID_CUT_WORKFLOW_XML.replace('value="graphVertexCut"', 'value="@POLICY@"'),
        {"input_file": "/in", "output_path": "/out", "num_partitions": 5, "threshold": 6},
        edge_data(),
    ),
}


def run(papar, shape, policy, backend, budget=None, data=None):
    workflow, args, default = SHAPES[shape]
    assert "@POLICY@" in workflow
    return papar.run(
        workflow.replace("@POLICY@", policy), args,
        data=default if data is None else data,
        backend=backend, num_ranks=RANKS if backend != "serial" else 1,
        memory_budget=budget,
    )


def rows(result):
    return [p.rows() for p in result.partitions]


def leftovers():
    """Shared-memory segments and spill directories a run may leak."""
    spills = glob.glob(os.path.join(tempfile.gettempdir(), "papar-spill-*"))
    return sorted(glob.glob("/dev/shm/pp*") + spills)


_SERIAL: dict = {}


def serial_rows(papar, shape, policy):
    if (shape, policy) not in _SERIAL:
        _SERIAL[shape, policy] = rows(run(papar, shape, policy, "serial"))
    return _SERIAL[shape, policy]


class TestPolicyBackendMatrix:
    def test_the_policies_really_differ(self, papar):
        """Otherwise agreeing with serial would prove nothing."""
        dealt = {p: serial_rows(papar, "flat", p) for p in POSITIONAL + PERMUTATION_ONLY}
        assert dealt["cyclic"] == dealt["roundRobin"] == dealt["graphVertexCut"]
        assert dealt["lastFirst"] == dealt["reversed"]
        distinct = [dealt[p] for p in ("cyclic", "block", "mirrored", "lastFirst")]
        assert all(a != b for i, a in enumerate(distinct) for b in distinct[i + 1:])

    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("budget", [None, SPILLING_BUDGET], ids=["memory", "spilled"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("policy", POSITIONAL)
    def test_positional_policy_matches_serial(self, papar, policy, backend, budget, shape):
        result = run(papar, shape, policy, backend, budget)
        if budget is not None and backend != "serial":
            assert result.extra["perf"]["spill"]["runs_written"] > 0
        assert rows(result) == serial_rows(papar, shape, policy)

    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("budget", [None, SPILLING_BUDGET], ids=["memory", "spilled"])
    @pytest.mark.parametrize("policy", PERMUTATION_ONLY)
    def test_permutation_only_policy_is_served_by_serial(self, papar, policy, budget, shape):
        assert rows(run(papar, shape, policy, "serial", budget)) == serial_rows(
            papar, shape, policy
        )

    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("budget", [None, SPILLING_BUDGET], ids=["memory", "spilled"])
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("policy", PERMUTATION_ONLY)
    def test_permutation_only_policy_is_refused_before_any_exchange(
        self, papar, monkeypatch, policy, backend, budget, shape
    ):
        def launched(*_args, **_kwargs):
            raise AssertionError("a rank program was launched")

        monkeypatch.setattr(MPIRuntime, "_execute_spmd", launched)
        before = leftovers()
        with pytest.raises(PolicyError, match="defined by its permutation alone"):
            run(papar, shape, policy, backend, budget)
        assert leftovers() == before


DEAL_ONLY_XML = """\
<workflow id="deal" name="deal">
  <arguments>
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
    <param name="num_partitions" type="Integer"/>
  </arguments>
  <operators>
    <operator id="dist" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="$output_path"/>
      <param name="distrPolicy" value="@POLICY@"/>
      <param name="numPartitions" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""


class TestTheOneRefusal:
    def test_same_error_on_every_spmd_backend_and_at_serve_start_up(self, papar, tmp_path):
        texts = set()
        for backend in BACKENDS[1:]:
            with pytest.raises(PolicyError) as refused:
                run(papar, "flat", "lastFirst", backend)
            texts.add(str(refused.value))

        path = tmp_path / "db.index"
        write_binary(path, SHAPES["flat"][2].records[:50], BLAST_INDEX_SCHEMA,
                     header=b"\x00" * 32)
        args = {"input_path": str(path), "output_path": str(tmp_path / "out"),
                "num_partitions": 4}
        listening = []
        with pytest.raises(PolicyError) as refused:
            asyncio.run(
                run_server(
                    papar, DEAL_ONLY_XML.replace("@POLICY@", "lastFirst"), args,
                    config=ServeConfig(port=0),
                    ready=lambda host, port: listening.append((host, port)),
                )
            )
        texts.add(str(refused.value))
        assert not listening  # refused while starting up: no socket was opened
        assert len(texts) == 1
        (text,) = texts
        assert "'lastFirst'" in text and "pieces(total, num_partitions, g0, m)" in text

    def test_the_inherited_name_does_not_decide(self):
        assert Reversed().name == "cyclic"
        assert not Reversed().deals_by_position
        assert not LastFirst().deals_by_position
        assert all(get_policy(name).deals_by_position for name in POSITIONAL)

        class RestatedReversed(Reversed):
            """Restating ``pieces`` below the override makes it positional again."""

            def pieces(self, total, num_partitions, g0, m):  # pragma: no cover
                raise NotImplementedError

        assert RestatedReversed().deals_by_position


class TestSmallInputs:
    """Empty, one-record and fewer-records-than-ranks inputs deal like serial."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_empty_input_yields_empty_partitions(self, papar, backend, shape):
        _workflow, args, data = SHAPES[shape]
        empty = Dataset(schema=data.schema, records=data.records[:0])
        result = run(papar, shape, "cyclic", backend, data=empty)
        assert [len(p) for p in result.partitions] == [0] * args["num_partitions"]
        serial = run(papar, shape, "cyclic", "serial", data=empty)
        assert [p.records.dtype for p in result.partitions] == [
            p.records.dtype for p in serial.partitions
        ]

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("n", [1, RANKS - 1])
    @pytest.mark.parametrize("policy", ["cyclic", "block"])
    def test_fewer_records_than_ranks_match_serial(self, papar, policy, n, backend):
        data = blast_data(n, seed=41)
        want = rows(run(papar, "flat", policy, "serial", data=data))
        assert sum(len(p) for p in want) == n
        assert rows(run(papar, "flat", policy, backend, data=data)) == want


class TestPiecesIsThePermutation:
    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(POSITIONAL),
        num_partitions=st.integers(1, 17),
        window=st.integers(0, 200).flatmap(
            lambda n: st.integers(0, n).flatmap(
                lambda g0: st.tuples(st.just(n), st.just(g0), st.integers(0, n - g0))
            )
        ),
    )
    def test_every_window_agrees_with_permutation_counts_and_assign(
        self, policy, num_partitions, window
    ):
        n, g0, m = window
        policy = get_policy(policy)
        perm = policy.permutation(n, num_partitions)
        counts = policy.counts(n, num_partitions)
        owners = np.empty(n, dtype=np.int64)
        owners[perm] = np.repeat(np.arange(num_partitions), counts)
        # slot_of[g]: where entry g sits inside its partition
        slot_of = np.empty(n, dtype=np.int64)
        slot_of[perm] = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)

        positions = np.arange(g0, g0 + m)
        covered, partitions = [], []
        for p, slot, where in policy.pieces(n, num_partitions, g0, m):
            picked = positions[where]
            assert len(picked) > 0
            assert (owners[picked] == p).all()
            assert np.array_equal(slot_of[picked], slot + np.arange(len(picked)))
            covered.append(picked)
            partitions.append(p)
        assert len(set(partitions)) == len(partitions)  # at most one per partition
        # a partition's slots rise with position: pieces order by first index
        by_owner = np.argsort(owners, kind="stable")
        same_owner = np.diff(owners[by_owner]) == 0
        assert (np.diff(slot_of[by_owner])[same_owner] == 1).all()
        covered = np.concatenate(covered) if covered else np.empty(0, dtype=np.int64)
        assert np.array_equal(np.sort(covered), positions)


class TestSpilledDealFrames:
    def test_a_spilled_deal_writes_the_stream_once(self, papar):
        """Deal frames are keyless: partition and first slot ride in the
        frame tag, so what is spilled is the records and nothing else."""
        data = blast_data(20_000, seed=43)
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 7}
        for policy in ("cyclic", "block"):
            workflow = DEAL_ONLY_XML.replace("@POLICY@", policy)
            serial = papar.run(workflow, args, data=data)
            spilled = papar.run(
                workflow, args, data=data, backend="mpi", num_ranks=2,
                memory_budget="32KB",
            )
            assert rows(spilled) == rows(serial)
            spill = spilled.extra["perf"]["spill"]
            assert spill["spilled_records"] == len(data)
            assert spill["spilled_bytes"] == data.nbytes
