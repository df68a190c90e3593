"""The distribution policies' permutations in index form (Section III-B).

PaPar formalizes distribution policies as the DSL permutation operator

    L_m^{km} : x[i*k + j]  ->  x[j*m + i],   0 <= i < m, 0 <= j < k

a stride-by-m permutation of a km-element vector.  ``L_2^4`` is the cyclic
redistribution of Figure 6(a); ``L_n^n`` is the identity used by the block
policy in Figure 6(b).

The product applies each permutation in its O(n) index form, ``y = x[perm]``.
When the partition count does not divide the entry count, the paper's
example (Figure 9 uses ``L_3^4``) shows the intended semantics: plain
round-robin dealing.  :func:`cyclic_permutation_indices` implements that
general case and reduces to ``L_{n/P}^n`` exactly when ``P | n``.  The
literal 0/1 matrix, applied by matrix-vector multiplication, lives in the
test oracle (``tests/integration/_oracle.py``), which checks these indices
against it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PolicyError
from repro.policies.distr import partition_counts  # noqa: F401 - its home is the policies


def cyclic_permutation_indices(n: int, num_partitions: int) -> np.ndarray:
    """Round-robin dealing order for ``n`` entries into ``num_partitions``.

    The permutation groups each partition's entries contiguously, partition 0
    first — the general-case ``L_P^n`` of Figure 9 (which deals 4 entries to
    3 partitions).  When ``num_partitions | n`` this is ``L_{n/P}^n``.
    """
    if n < 0:
        raise PolicyError(f"vector length must be >= 0, got {n!r}")
    if num_partitions < 1:
        raise PolicyError(f"num_partitions must be >= 1, got {num_partitions!r}")
    # closed form of "stable-sort the positions by position mod P": partition
    # p holds p, p + P, p + 2P, ... (empty when p >= n)
    return np.concatenate(
        [np.arange(p, n, num_partitions, dtype=np.int64) for p in range(num_partitions)]
    )


def block_permutation_indices(n: int) -> np.ndarray:
    """The block policy's identity permutation ``L_n^n`` (Figure 6(b))."""
    if n < 0:
        raise PolicyError(f"vector length must be >= 0, got {n!r}")
    return np.arange(n, dtype=np.int64)
