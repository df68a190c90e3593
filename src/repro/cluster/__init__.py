"""Virtual-time cluster cost model.

The paper's evaluation ran on a 16-node cluster (two 8-core Sandy Bridge
sockets per node, 10 GbE and QDR InfiniBand).  We cannot reproduce wall-clock
scaling of that machine inside one Python process, so every cluster-scale
figure in this repo is produced under a *virtual-time* model:

* each MPI rank owns a :class:`~repro.cluster.clock.VirtualClock`;
* communication advances clocks according to a
  :class:`~repro.cluster.network.NetworkModel` (latency + size / bandwidth,
  with separate intra-node parameters);
* compute phases are charged through a :class:`~repro.cluster.model.CostModel`
  whose per-record constants are calibrated against numpy kernels on the host.

See DESIGN.md §6 for the methodology discussion.
"""

from repro._lazy import lazy_exports

# names bind on first use: a run without a cost model loads only the clock
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cluster.clock": ("VirtualClock",),
    "repro.cluster.network": ("NetworkModel", "ETHERNET_10G", "INFINIBAND_QDR", "LOCALHOST"),
    "repro.cluster.machine": ("NodeSpec",),
    "repro.cluster.model": ("ClusterModel", "CostModel"),
})
