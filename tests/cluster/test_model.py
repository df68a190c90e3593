"""ClusterModel, NetworkModel and CostModel behaviour."""

import math

import pytest

from repro.cluster import (
    ETHERNET_10G,
    INFINIBAND_QDR,
    LOCALHOST,
    ClusterModel,
    CostModel,
    NetworkModel,
    NodeSpec,
)
from repro.cluster.model import calibrate
from repro.errors import ClusterError


class TestNetworkModel:
    def test_transfer_time_alpha_beta(self):
        net = NetworkModel("t", latency_s=1e-3, bandwidth_bps=1e6, intra_latency_s=0, intra_bandwidth_bps=1e9)
        assert net.transfer_time(1_000_000, same_node=False) == pytest.approx(1e-3 + 1.0)

    def test_intra_node_cheaper(self):
        for net in (ETHERNET_10G, INFINIBAND_QDR):
            big = 1 << 20
            assert net.transfer_time(big, same_node=True) < net.transfer_time(big, same_node=False)

    def test_infiniband_beats_ethernet(self):
        """RDMA latency and bandwidth both dominate the socket path."""
        for nbytes in (0, 1 << 10, 1 << 24):
            assert INFINIBAND_QDR.transfer_time(nbytes, same_node=False) < ETHERNET_10G.transfer_time(
                nbytes, same_node=False
            ) or nbytes == 0 and INFINIBAND_QDR.latency_s < ETHERNET_10G.latency_s

    def test_localhost_free(self):
        assert LOCALHOST.transfer_time(1 << 30, same_node=False) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ClusterError):
            ETHERNET_10G.transfer_time(-1, same_node=False)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ClusterError):
            NetworkModel("bad", 0, 0, 0, 1)


class TestNodeSpec:
    def test_paper_node(self):
        node = NodeSpec()
        assert node.cores == 16
        assert node.sockets == 2

    def test_invalid(self):
        with pytest.raises(ClusterError):
            NodeSpec(sockets=0)


class TestCostModel:
    def test_sort_is_n_log_n(self):
        cm = CostModel()
        n = 1 << 20
        assert cm.sort(n) == pytest.approx(cm.sort_per_cmp * n * math.log2(n))
        assert cm.sort(1) == 0.0
        assert cm.sort(0) == 0.0

    def test_parallel_speedup_bounded_by_threads(self):
        cm = CostModel()
        base = cm.sort(1 << 20)
        p8 = cm.parallel(base, 8)
        assert base / p8 <= 8
        assert base / p8 == pytest.approx(8 * cm.parallel_efficiency)

    def test_parallel_single_thread_identity(self):
        cm = CostModel()
        assert cm.parallel(1.0, 1) == 1.0

    def test_parallel_zero_threads_rejected(self):
        with pytest.raises(ClusterError):
            CostModel().parallel(1.0, 0)

    def test_invalid_efficiency(self):
        with pytest.raises(ClusterError):
            CostModel(parallel_efficiency=0.0)
        with pytest.raises(ClusterError):
            CostModel(parallel_efficiency=1.5)

    def test_calibrate_produces_positive_constants(self):
        cm = calibrate(sample_size=1 << 14, repeats=1)
        assert cm.sort_per_cmp > 0
        assert cm.stream_per_rec > 0
        assert cm.pack_per_byte > 0


class TestClusterModel:
    def test_paper_testbed(self):
        cluster = ClusterModel(num_nodes=16, ranks_per_node=2, network=INFINIBAND_QDR)
        assert cluster.size == 32
        assert cluster.node_of(0) == 0
        assert cluster.node_of(1) == 0
        assert cluster.node_of(2) == 1
        assert cluster.same_node(0, 1)
        assert not cluster.same_node(1, 2)

    def test_self_transfer_free(self):
        cluster = ClusterModel(num_nodes=2, network=INFINIBAND_QDR)
        assert cluster.transfer_time(1 << 20, 0, 0) == 0.0

    def test_cross_node_slower_than_intra(self):
        cluster = ClusterModel(num_nodes=2, ranks_per_node=2, network=INFINIBAND_QDR)
        assert cluster.transfer_time(1 << 20, 0, 1) < cluster.transfer_time(1 << 20, 0, 2)

    def test_oversubscription_rejected(self):
        with pytest.raises(ClusterError):
            ClusterModel(num_nodes=1, ranks_per_node=4, threads_per_rank=8)

    def test_rank_out_of_range(self):
        with pytest.raises(ClusterError):
            ClusterModel(num_nodes=1).node_of(99)

    def test_compute_uses_rank_threads(self):
        cluster = ClusterModel(num_nodes=1, ranks_per_node=2, threads_per_rank=8)
        single = cluster.cost.sort(1 << 20)
        assert cluster.compute(single) == pytest.approx(cluster.cost.parallel(single, 8))
