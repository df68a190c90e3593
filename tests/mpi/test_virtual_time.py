"""Simulated time of a generic ``run_mpi`` program: its ranks' traffic
tallies (``comm.sent``, ``comm.packed``) priced as one step by
``repro.cluster.model.price``."""

from dataclasses import replace

import pytest

from repro.cluster import ClusterModel, ETHERNET_10G, INFINIBAND_QDR, price
from repro.core.perf import JobCounts
from repro.mpi import SUM, run_mpi


def cluster(nodes=2, rpn=2, network=INFINIBAND_QDR):
    return ClusterModel(num_nodes=nodes, ranks_per_node=rpn, network=network)


def priced(prog, size, c):
    """Run ``prog`` on ``size`` ranks; price what its ranks tallied as one
    step (no job was launched, so it pays no job overhead)."""

    def tallied(comm):
        prog(comm)
        return JobCounts(sent=comm.sent, packed=comm.packed)

    step = run_mpi(tallied, size).results
    return price([step], replace(c, cost=replace(c.cost, job_overhead=0.0)))


def test_the_tally_names_each_destination():
    def prog(comm):
        comm.send("x", dest=(comm.rank + 1) % comm.size)
        comm.recv(source=(comm.rank - 1) % comm.size)
        return comm.sent

    sent = run_mpi(prog, 3).results
    assert [set(s) for s in sent] == [{1}, {2}, {0}]
    assert all(messages == 1 and nbytes > 0 for s in sent for nbytes, messages in s.values())
    assert priced(lambda comm: None, 4, cluster()) == 0.0


def test_message_is_priced_to_its_sender():
    c = cluster()

    def prog(comm):
        if comm.rank == 0:
            comm.send(b"0" * 10_000, dest=2)  # cross-node
        elif comm.rank == 2:
            comm.recv(source=0)
        return comm.sent

    sent = run_mpi(prog, 4).results
    assert set(sent[0]) == {2} and sent[2] == {}
    nbytes, messages = sent[0][2]
    # the sender's transfer and pickling, the receiver's unpickling: the
    # step costs its slowest rank
    assert priced(prog, 4, c) == pytest.approx(
        messages * c.transfer_time(nbytes, 0, 2) + c.cost.pack(nbytes))


def test_cross_node_costs_more_than_intra_node():
    c = cluster()
    payload = b"0" * 1_000_000

    def to(dest):
        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=dest)
            elif comm.rank == dest:
                comm.recv(source=0)
        return prog

    # ranks 0 and 1 share node 0; rank 2 is on node 1
    assert priced(to(2), 4, c) > priced(to(1), 4, c)


def test_infiniband_faster_than_ethernet():
    payload = b"0" * 4_000_000

    def prog(comm):
        if comm.rank == 0:
            comm.send(payload, dest=2)
        elif comm.rank == 2:
            comm.recv(source=0)

    ib = priced(prog, 4, cluster(network=INFINIBAND_QDR))
    eth = priced(prog, 4, cluster(network=ETHERNET_10G))
    assert ib < eth


def test_reduce_virtual_time_scales_logarithmically():
    """A tree reduce sends one message per rank, so its priced step grows
    far slower than the rank count."""
    lat = INFINIBAND_QDR.latency_s

    def prog(comm):
        comm.reduce(comm.rank, SUM)

    t4 = priced(prog, 4, cluster(nodes=2, rpn=2))
    t16 = priced(prog, 16, cluster(nodes=8, rpn=2))
    assert t16 < t4 * 4  # strictly sub-linear growth
    assert t16 > 0
    assert t4 >= lat  # at least one cross-node hop


def test_elapsed_is_max_clock():
    """The step costs its slowest rank, not the sum over ranks."""
    c = cluster()

    def prog(comm):
        if comm.rank in (0, 3):
            comm.send(b"0" * (1_000_000 if comm.rank == 3 else 1_000), dest=comm.rank ^ 1)
        elif comm.rank in (1, 2):
            comm.recv(source=comm.rank ^ 1)

    def alone(rank):
        def prog(comm):
            if comm.rank == rank:
                comm.send(b"0" * 1_000_000, dest=rank ^ 1)
            elif comm.rank == rank ^ 1:
                comm.recv(source=rank)
        return prog

    assert priced(prog, 4, c) == pytest.approx(priced(alone(3), 4, c))
