"""Stride-permutation matrices (paper Section III-B, Figure 6).

PaPar formalizes distribution policies as the DSL permutation operator

    L_m^{km} : x[i*k + j]  ->  x[j*m + i],   0 <= i < m, 0 <= j < k

a stride-by-m permutation of a km-element vector.  ``L_2^4`` is the cyclic
redistribution of Figure 6(a); ``L_n^n`` is the identity used by the block
policy in Figure 6(b).

Two equivalent realizations are provided (and tested equal):

* :func:`stride_permutation_indices` — the O(n) index form every mapper
  applies locally at runtime;
* :func:`stride_permutation_matrix` — the explicit sparse permutation matrix,
  applied as a matrix-vector multiplication, matching the paper's
  formalization literally.

When the partition count does not divide the entry count, the paper's
example (Figure 9 uses ``L_3^4``) shows the intended semantics: plain
round-robin dealing.  :func:`cyclic_permutation_indices` implements that
general case and reduces to ``L_m^n`` exactly when ``m | n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover - scipy is imported by the matrix builder only
    import scipy.sparse as sp


def stride_permutation_indices(n: int, m: int) -> np.ndarray:
    """Index form of ``L_m^n``: returns ``perm`` with ``y = x[perm]``.

    Requires ``m`` to divide ``n`` (the textbook definition).
    """
    if n < 0:
        raise PolicyError(f"vector length must be >= 0, got {n!r}")
    if m < 1:
        raise PolicyError(f"stride must be >= 1, got {m!r}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n % m != 0:
        raise PolicyError(f"L_m^n requires m | n; got n={n}, m={m}")
    k = n // m
    # y[j*m + i] = x[i*k + j]  <=>  y = x.reshape(m, k).T.ravel()
    return np.arange(n, dtype=np.int64).reshape(m, k).T.reshape(-1)


def stride_permutation_matrix(n: int, m: int) -> sp.csr_matrix:
    """Explicit sparse permutation matrix ``P`` with ``y = P @ x``."""
    # the use_matrix ablation is scipy's only caller on the CLI import path
    import scipy.sparse as sp

    perm = stride_permutation_indices(n, m)
    data = np.ones(n, dtype=np.int8)
    rows = np.arange(n, dtype=np.int64)
    return sp.csr_matrix((data, (rows, perm)), shape=(n, n))


def apply_permutation_matrix(matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Matrix-vector multiplication form of the permutation.

    Works for any element payload: applied to the *index vector* so entries
    of arbitrary record types can be gathered afterwards.
    """
    if matrix.shape[0] != len(x):
        raise PolicyError(
            f"matrix is {matrix.shape[0]}x{matrix.shape[1]} but vector has {len(x)} entries"
        )
    return matrix @ x


def cyclic_permutation_indices(n: int, num_partitions: int) -> np.ndarray:
    """Round-robin dealing order for ``n`` entries into ``num_partitions``.

    The permutation groups each partition's entries contiguously, partition 0
    first — the general-case ``L_P^n`` of Figure 9 (which deals 4 entries to
    3 partitions).  When ``num_partitions | n`` this equals
    :func:`stride_permutation_indices`.
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


def partition_counts(n: int, num_partitions: int, policy: str) -> np.ndarray:
    """Entries per partition after permutation, for contiguous dealing.

    Both policies balance the remainder onto the first ``n % P`` partitions:
    cyclic because round-robin dealing wraps, block by convention.
    """
    if policy not in ("cyclic", "block"):
        raise PolicyError(f"unknown policy {policy!r}")
    if num_partitions < 1:
        raise PolicyError(f"num_partitions must be >= 1, got {num_partitions!r}")
    if n < 0:
        raise PolicyError(f"entry count must be >= 0, got {n!r}")
    base, extra = divmod(n, num_partitions)
    return np.array(
        [base + (1 if p < extra else 0) for p in range(num_partitions)], dtype=np.int64
    )
