"""Distribution policies: which output partition receives each entry.

The paper's ``distribute`` operator is the one operator that does not follow
the key-value concept; it formalizes its policy as a permutation matrix
(generated at runtime from the ``policy`` and ``numPartitions`` parameters,
so the operator's code never changes — Section III-B).

Policies:

* ``cyclic`` (alias ``roundRobin``) — deal entries round-robin, Figure 6(a);
* ``block`` — contiguous chunks, Figure 6(b);
* ``graphVertexCut`` — the hybrid-cut distribution: applied per input stream
  (packed low-degree groups and flat high-degree edges), cyclic within each
  stream, exactly the two matrices ``L_3^4`` / ``L_3^3`` of Figure 11.

The product applies each policy's permutation in its O(n) index form
(:meth:`~DistributionPolicy.permutation`, ``y = x[perm]``); the literal 0/1
matrix built from each policy's definition lives in the test oracle
(``tests/integration/_oracle.py``), which checks the index form against it.

A policy is *defined* by its permutation.  The built-in ones also state it
in positional form — :meth:`~DistributionPolicy.pieces`, where an entry goes
given only its global position — which is what lets a stream be dealt in
windows: a chunk at a time out of core, a rank's share on the SPMD backends,
an appended batch in ``serve``.  Every dealer reaches the rule through the
policy object; a policy without it runs on the serial backend only
(:meth:`~DistributionPolicy.require_positional`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover - the kernels import numpy where they run
    import numpy as np


class DistributionPolicy:
    """Maps entry positions to partitions via a permutation + counts."""

    name: str = "abstract"

    def permutation(self, n: int, num_partitions: int) -> np.ndarray:
        """Permutation indices putting each partition's entries contiguously."""
        raise NotImplementedError

    def counts(self, n: int, num_partitions: int) -> np.ndarray:
        """Entries per partition, aligned with :meth:`permutation` order."""
        raise NotImplementedError

    def assign(self, n: int, num_partitions: int) -> np.ndarray:
        """Partition id of each entry position (derived from the permutation)."""
        import numpy as np

        perm = self.permutation(n, num_partitions)
        counts = self.counts(n, num_partitions)
        owners = np.empty(n, dtype=np.int64)
        # scatter each partition's id over its contiguous permutation slice
        # in one vectorized repeat instead of a per-partition loop
        owners[perm] = np.repeat(np.arange(num_partitions, dtype=np.int64), counts)
        return owners

    def pieces(
        self, total: int, num_partitions: int, g0: int, m: int
    ) -> Iterator[tuple[int, int, slice]]:
        """The permutation in positional form, for one window of a stream.

        Where the entries at global positions ``[g0, g0 + m)`` of a stream
        of ``total`` go: ``(partition, first slot, slice of the window)``,
        at most one per partition.  The sliced entries fill that partition's
        slots from ``first slot`` up, and a partition's slots rise with
        position (dealers order pieces of several windows by first
        position).  Must agree with :meth:`permutation` / :meth:`counts`
        for every window.
        """
        raise NotImplementedError

    @property
    def deals_by_position(self) -> bool:
        """Whether :meth:`pieces` states this policy's rule.

        Asked of the class, never of :attr:`name`: the most derived class
        that defines any of the rule decides, so overriding
        :meth:`permutation` or :meth:`counts` without restating
        :meth:`pieces` makes a policy permutation-defined whatever name it
        inherits.
        """
        for cls in type(self).__mro__:
            own = vars(cls)
            if "pieces" in own or "permutation" in own or "counts" in own:
                return "pieces" in own and cls is not DistributionPolicy
        return False

    def require_positional(self) -> None:
        """The one refusal of a permutation-defined policy, raised on the
        driver by every consumer that deals a stream in windows: the SPMD
        backends before a rank is launched, ``serve`` before a socket opens."""
        if not self.deals_by_position:
            raise PolicyError(
                f"distribution policy {self.name!r} ({type(self).__name__}) is "
                f"defined by its permutation alone, which only the serial "
                f"backend applies; the mpi, mapreduce and process backends and "
                f"serve deal a stream in windows of positions — define "
                f"pieces(total, num_partitions, g0, m) on the policy to run there"
            )


class CyclicPolicy(DistributionPolicy):
    """Round-robin dealing (the muBLASTP optimized policy)."""

    name = "cyclic"

    def permutation(self, n: int, num_partitions: int) -> np.ndarray:
        from repro.policies.permutation import cyclic_permutation_indices

        return cyclic_permutation_indices(n, num_partitions)

    def counts(self, n: int, num_partitions: int) -> np.ndarray:
        from repro.policies.permutation import partition_counts

        return partition_counts(n, num_partitions, "cyclic")

    def pieces(
        self, total: int, num_partitions: int, g0: int, m: int
    ) -> Iterator[tuple[int, int, slice]]:
        # the window's j-th entry opens the stride of partition (g0 + j) mod P
        for j in range(min(num_partitions, m)):
            slot, p = divmod(g0 + j, num_partitions)
            yield p, slot, slice(j, None, num_partitions)


class BlockPolicy(DistributionPolicy):
    """Contiguous chunks (the muBLASTP default policy)."""

    name = "block"

    def permutation(self, n: int, num_partitions: int) -> np.ndarray:
        if num_partitions < 1:
            raise PolicyError(f"num_partitions must be >= 1, got {num_partitions!r}")
        from repro.policies.permutation import block_permutation_indices

        return block_permutation_indices(n)

    def counts(self, n: int, num_partitions: int) -> np.ndarray:
        from repro.policies.permutation import partition_counts

        return partition_counts(n, num_partitions, "block")

    def pieces(
        self, total: int, num_partitions: int, g0: int, m: int
    ) -> Iterator[tuple[int, int, slice]]:
        # partition p holds the global positions [offsets[p], offsets[p + 1]),
        # so a window splits into contiguous runs
        import numpy as np

        offsets = [0, *np.cumsum(self.counts(total, num_partitions)).tolist()]
        p = bisect_right(offsets, g0) - 1
        pos, stop = g0, g0 + m
        while pos < stop:
            end = min(stop, offsets[p + 1])
            if end > pos:
                yield p, pos - offsets[p], slice(pos - g0, end - g0)
                pos = end
            p += 1


class GraphVertexCutPolicy(CyclicPolicy):
    """Hybrid-cut distribution: cyclic dealing applied per input stream.

    Low-degree entries arrive packed (one entry = a vertex with all its
    in-edges, kept together on one partition); high-degree entries arrive
    unpacked (one entry = one edge, spread across partitions).  The
    distribute operator applies this same cyclic policy to each stream, so
    the class only renames :class:`CyclicPolicy`; stream handling lives in
    the ``Distribute`` operator.
    """

    name = "graphVertexCut"


_POLICIES: dict[str, Callable[[], DistributionPolicy]] = {
    "cyclic": CyclicPolicy,
    "roundrobin": CyclicPolicy,
    "block": BlockPolicy,
    "graphvertexcut": GraphVertexCutPolicy,
}


def get_policy(name: str) -> DistributionPolicy:
    """Look up a distribution policy by its configuration-file name."""
    factory = _POLICIES.get(name.strip().lower())
    if factory is None:
        raise PolicyError(f"unknown distribution policy {name!r}; known: {sorted(_POLICIES)}")
    return factory()


def register_policy(name: str, factory: Callable[[], DistributionPolicy]) -> None:
    """Register a user-defined distribution policy (extensibility hook).

    A policy that defines :meth:`~DistributionPolicy.permutation` and
    :meth:`~DistributionPolicy.counts` runs on the serial backend; one that
    also states :meth:`~DistributionPolicy.pieces` runs on every backend,
    under a memory budget and in ``serve``.
    """
    key = name.strip().lower()
    if key in _POLICIES:
        raise PolicyError(f"policy {name!r} is already registered")
    _POLICIES[key] = factory
