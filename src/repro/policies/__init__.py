"""Distribution and split policies, formalized as stride permutations.

See :mod:`repro.policies.permutation` for the ``L_m^{km}`` permutations in
index form (Figure 6), :mod:`repro.policies.distr` for the cyclic / block /
graphVertexCut distribution policies, and :mod:`repro.policies.split_policy`
for the threshold routing grammar of the ``split`` operator.
"""

from repro._lazy import lazy_exports

# names load on first use: looking up a policy does not load the
# permutation kernels (or numpy)
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.policies.distr": (
        "DistributionPolicy", "CyclicPolicy", "BlockPolicy", "GraphVertexCutPolicy",
        "get_policy", "register_policy",
    ),
    "repro.policies.permutation": (
        "cyclic_permutation_indices", "block_permutation_indices", "partition_counts",
    ),
    "repro.policies.split_policy": ("SplitPolicy", "SplitCondition"),
})
