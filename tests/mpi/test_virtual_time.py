"""Simulated time of a generic ``run_mpi`` program: one priced step of the
traffic its ranks tallied (``repro.cluster.model.price``)."""

import pytest

from repro.cluster import ClusterModel, ETHERNET_10G, INFINIBAND_QDR
from repro.mpi import SUM, run_mpi


def cluster(nodes=2, rpn=2, network=INFINIBAND_QDR):
    return ClusterModel(num_nodes=nodes, ranks_per_node=rpn, network=network)


def test_no_cluster_means_zero_clocks():
    def prog(comm):
        comm.send("x", dest=(comm.rank + 1) % comm.size)
        comm.recv(source=(comm.rank - 1) % comm.size)

    run = run_mpi(prog, 2)
    assert run.elapsed == 0.0


def test_message_is_priced_to_its_sender():
    c = cluster()

    def prog(comm):
        if comm.rank == 0:
            comm.send(b"0" * 10_000, dest=2)  # cross-node
        elif comm.rank == 2:
            comm.recv(source=0)
        return comm.sent

    run = run_mpi(prog, 4, cluster=c)
    assert set(run.results[0]) == {2} and run.results[2] == {}
    nbytes, messages = run.results[0][2]
    # the sender's transfer and pickling, the receiver's unpickling: the
    # step costs its slowest rank
    assert run.elapsed == pytest.approx(
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
    assert run_mpi(to(2), 4, cluster=c).elapsed > run_mpi(to(1), 4, cluster=c).elapsed


def test_infiniband_faster_than_ethernet():
    payload = b"0" * 4_000_000

    def prog(comm):
        if comm.rank == 0:
            comm.send(payload, dest=2)
        elif comm.rank == 2:
            comm.recv(source=0)

    ib = run_mpi(prog, 4, cluster=cluster(network=INFINIBAND_QDR))
    eth = run_mpi(prog, 4, cluster=cluster(network=ETHERNET_10G))
    assert ib.elapsed < eth.elapsed


def test_reduce_virtual_time_scales_logarithmically():
    """A tree reduce sends one message per rank, so its priced step grows
    far slower than the rank count."""
    lat = INFINIBAND_QDR.latency_s

    def prog(comm):
        comm.reduce(comm.rank, SUM)

    t4 = run_mpi(prog, 4, cluster=cluster(nodes=2, rpn=2)).elapsed
    t16 = run_mpi(prog, 16, cluster=cluster(nodes=8, rpn=2)).elapsed
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

    assert run_mpi(prog, 4, cluster=c).elapsed == pytest.approx(
        run_mpi(alone(3), 4, cluster=c).elapsed)


def test_cluster_size_mismatch_rejected():
    from repro.errors import MPIError

    with pytest.raises(MPIError, match="cluster"):
        run_mpi(lambda comm: None, 3, cluster=cluster(nodes=2, rpn=2))
