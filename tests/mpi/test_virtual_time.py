"""Virtual-time accounting through the MPI runtime."""

import pytest

from repro.cluster import ClusterModel, CostModel, ETHERNET_10G, INFINIBAND_QDR
from repro.mpi import SUM, run_mpi


def cluster(nodes=2, rpn=2, network=INFINIBAND_QDR):
    return ClusterModel(num_nodes=nodes, ranks_per_node=rpn, network=network)


def test_no_cluster_means_zero_clocks():
    def prog(comm):
        comm.send("x", dest=(comm.rank + 1) % comm.size)
        comm.recv(source=(comm.rank - 1) % comm.size)

    run = run_mpi(prog, 2)
    assert run.elapsed == 0.0


def test_message_advances_receiver_clock():
    c = cluster()

    def prog(comm):
        if comm.rank == 0:
            comm.send(b"0" * 10_000, dest=2)  # cross-node
        elif comm.rank == 2:
            comm.recv(source=0)
        return comm.clock.now

    run = run_mpi(prog, 4, cluster=c)
    assert run.results[2] > 0.0
    # untouched ranks stay at zero
    assert run.results[3] == 0.0


def test_cross_node_costs_more_than_intra_node():
    c = cluster()
    payload = b"0" * 1_000_000

    def intra(comm):
        if comm.rank == 0:
            comm.send(payload, dest=1)  # same node (ranks 0,1 on node 0)
        elif comm.rank == 1:
            comm.recv(source=0)
        return comm.clock.now

    def cross(comm):
        if comm.rank == 0:
            comm.send(payload, dest=2)  # node 0 -> node 1
        elif comm.rank == 2:
            comm.recv(source=0)
        return comm.clock.now

    run_intra = run_mpi(intra, 4, cluster=c)
    run_cross = run_mpi(cross, 4, cluster=c)
    assert run_cross.results[2] > run_intra.results[1]


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


def test_charge_compute_is_reflected_in_elapsed():
    c = cluster()

    def prog(comm):
        if comm.rank == 1:
            comm.charge_compute(2.5)
        comm.allreduce(0, SUM)
        return comm.clock.now

    run = run_mpi(prog, 4, cluster=c)
    # the allreduce propagates the slowest rank's clock to everyone
    assert all(t >= 2.5 for t in run.results)


def test_barrier_synchronizes_clocks_to_max():
    """``allreduce`` is the synchronizing collective: it waits for every rank."""
    c = cluster()

    def prog(comm):
        comm.charge_compute(float(comm.rank))
        comm.allreduce(0, SUM)
        return comm.clock.now

    run = run_mpi(prog, 4, cluster=c)
    slowest = 3.0
    assert all(t >= slowest for t in run.results)
    # and nobody should be charged absurdly more than the collective's cost
    assert run.elapsed < slowest + 0.1


def test_reduce_virtual_time_scales_logarithmically():
    """A tree reduce over p ranks should cost ~log2(p) latencies, not p."""
    lat = INFINIBAND_QDR.latency_s

    def prog(comm):
        comm.reduce(comm.rank, SUM)
        return comm.clock.now

    t4 = run_mpi(prog, 4, cluster=cluster(nodes=2, rpn=2)).elapsed
    t16 = run_mpi(prog, 16, cluster=cluster(nodes=8, rpn=2)).elapsed
    assert t16 < t4 * 4  # strictly sub-linear growth
    assert t16 > 0
    assert t4 >= lat  # at least one cross-node hop


def test_elapsed_is_max_clock():
    c = cluster()

    def prog(comm):
        comm.charge_compute(1.0 if comm.rank == 3 else 0.1)
        return None

    run = run_mpi(prog, 4, cluster=c)
    assert run.elapsed == pytest.approx(1.0)


def test_cluster_size_mismatch_rejected():
    from repro.errors import MPIError

    with pytest.raises(MPIError, match="cluster"):
        run_mpi(lambda comm: None, 3, cluster=cluster(nodes=2, rpn=2))
