"""Cluster cost model: simulated time priced from a run's counts.

The paper's evaluation ran on a 16-node cluster (two 8-core Sandy Bridge
sockets per node, 10 GbE and QDR InfiniBand).  We cannot reproduce wall-clock
scaling of that machine inside one Python process, so every cluster-scale
figure in this repo is *priced*: a run counts, per job and per rank, the
records each local kernel ran over and the bytes and messages it sent to
each destination, and :func:`~repro.cluster.model.price` turns those counts
into seconds on a model of the cluster:

* a :class:`~repro.cluster.network.NetworkModel` prices transfers (latency +
  size / bandwidth, with separate intra-node parameters);
* a :class:`~repro.cluster.model.CostModel` prices compute, with per-record
  constants calibrated against numpy kernels on the host.

See DESIGN.md §6 for the methodology discussion.
"""

from repro._lazy import lazy_exports

# names bind on first use: a run without a cost model loads none of them
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cluster.network": ("NetworkModel", "ETHERNET_10G", "INFINIBAND_QDR", "LOCALHOST"),
    "repro.cluster.machine": ("NodeSpec",),
    "repro.cluster.model": ("ClusterModel", "CostModel", "price"),
})
