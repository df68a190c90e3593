"""Stride permutations L_m^{km} (Figure 6) — the product's index form
against the matrix form, which the test oracle builds from the definition."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.policies import block_permutation_indices, cyclic_permutation_indices, partition_counts
from tests.integration._oracle import stride_permutation_matrix


def permuted(n, m):
    """``L_m^n`` applied to the index vector: ``y = L @ [0, 1, ..., n-1]``."""
    return stride_permutation_matrix(n, m) @ np.arange(n, dtype=np.int64)


class TestStridePermutation:
    def test_figure6a_L2_4(self):
        """L_2^4 permutes [x0,x1,x2,x3] -> [x0,x2,x1,x3] (cyclic, 2 partitions)."""
        x = np.array(["x0", "x1", "x2", "x3"])
        assert x[permuted(4, 2)].tolist() == ["x0", "x2", "x1", "x3"]

    def test_figure6b_L4_4_identity(self):
        """L_4^4 is the identity (block policy)."""
        assert permuted(4, 4).tolist() == [0, 1, 2, 3]

    def test_definition_formula(self):
        """y[j*m+i] = x[i*k+j] for all i < m, j < k."""
        n, m = 12, 3
        k = n // m
        x = np.arange(n) * 10
        y = stride_permutation_matrix(n, m) @ x
        for i in range(m):
            for j in range(k):
                assert y[j * m + i] == x[i * k + j]

    def test_requires_divisibility(self):
        with pytest.raises(ValueError, match="requires m"):
            stride_permutation_matrix(4, 3)

    def test_empty(self):
        assert len(permuted(0, 3)) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            stride_permutation_matrix(-1, 2)
        with pytest.raises(ValueError):
            stride_permutation_matrix(4, 0)

    @given(st.integers(1, 12), st.integers(1, 12))
    def test_property_is_permutation(self, m, k):
        n = m * k
        assert sorted(permuted(n, m).tolist()) == list(range(n))

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_property_inverse_is_L_k(self, m, k):
        """The inverse of L_m^{mk} is L_k^{mk}."""
        n = m * k
        x = np.arange(n)
        back = stride_permutation_matrix(n, k) @ (stride_permutation_matrix(n, m) @ x)
        assert np.array_equal(back, x)


class TestMatrixForm:
    def test_matrix_equals_index_form(self):
        """The product's cyclic index form is the matrix L_{n/P}^n when P | n."""
        for n, m in [(4, 2), (4, 4), (12, 3), (16, 8)]:
            x = np.arange(n) * 10
            via_matrix = stride_permutation_matrix(n, m) @ x
            via_index = x[cyclic_permutation_indices(n, n // m)]
            assert np.array_equal(via_matrix, via_index)

    def test_matrix_is_orthogonal_permutation(self):
        P = stride_permutation_matrix(6, 2).toarray()
        assert (P.sum(axis=0) == 1).all()
        assert (P.sum(axis=1) == 1).all()
        assert np.array_equal(P @ P.T, np.eye(6, dtype=P.dtype))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stride_permutation_matrix(4, 2) @ np.arange(5)


class TestCyclicPermutation:
    def test_figure9_L3_4(self):
        """The paper's L_3^4: 4 entries dealt to 3 partitions round-robin.

        Mapper 0 of Figure 9 sends entries {0, 3} to partition 0, {1} to
        partition 1, {2} to partition 2.
        """
        perm = cyclic_permutation_indices(4, 3)
        assert perm.tolist() == [0, 3, 1, 2]

    def test_reduces_to_stride_permutation_when_divisible(self):
        """Cyclic dealing into P partitions == L_{n/P}^n (gather at stride P)."""
        for n, p in [(4, 2), (12, 3), (16, 4), (9, 9)]:
            assert np.array_equal(cyclic_permutation_indices(n, p), permuted(n, n // p))

    def test_L3_3_identity(self):
        """Figure 11: L_3^3 'happens not to permute data'."""
        assert cyclic_permutation_indices(3, 3).tolist() == [0, 1, 2]

    def test_single_partition(self):
        assert cyclic_permutation_indices(5, 1).tolist() == [0, 1, 2, 3, 4]

    @given(st.integers(0, 100), st.integers(1, 10))
    def test_property_round_robin_owners(self, n, p):
        """Entry i must land in partition i % p."""
        perm = cyclic_permutation_indices(n, p)
        counts = partition_counts(n, p, "cyclic")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for part in range(p):
            for entry in perm[offsets[part] : offsets[part + 1]]:
                assert entry % p == part

    @given(st.integers(0, 100), st.integers(1, 10))
    def test_property_preserves_order_within_partition(self, n, p):
        perm = cyclic_permutation_indices(n, p)
        counts = partition_counts(n, p, "cyclic")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for part in range(p):
            chunk = perm[offsets[part] : offsets[part + 1]]
            assert np.all(np.diff(chunk) > 0) or len(chunk) <= 1

    @given(st.integers(0, 120), st.integers(1, 140))
    def test_property_closed_form_equals_the_sort_definition(self, n, p):
        """The O(n) closed form is the definition it replaced — positions
        stable-sorted by ``position mod P`` — also for ``n = 0``, ``P > n``
        and ``P`` not dividing ``n``."""
        idx = np.arange(n, dtype=np.int64)
        want = idx[np.argsort(idx % p, kind="stable")]
        got = cyclic_permutation_indices(n, p)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestBlockAndCounts:
    def test_block_identity(self):
        assert block_permutation_indices(5).tolist() == [0, 1, 2, 3, 4]

    def test_counts_balanced(self):
        assert partition_counts(10, 3, "cyclic").tolist() == [4, 3, 3]
        assert partition_counts(10, 3, "block").tolist() == [4, 3, 3]
        assert partition_counts(0, 3, "cyclic").tolist() == [0, 0, 0]

    def test_counts_unknown_policy(self):
        with pytest.raises(PolicyError):
            partition_counts(10, 3, "zigzag")

    @given(st.integers(0, 1000), st.integers(1, 32))
    def test_property_counts_sum_to_n(self, n, p):
        assert partition_counts(n, p, "cyclic").sum() == n

    @given(st.integers(0, 1000), st.integers(1, 32))
    def test_property_counts_max_imbalance_one(self, n, p):
        counts = partition_counts(n, p, "block")
        assert counts.max() - counts.min() <= 1


def test_importing_the_cli_leaves_scipy_out():
    """The product imports no scipy (its one user is the graph case study,
    ``benchmarks/apps/graph``); every CLI start-up would pay ~0.15 s for it.  A fresh
    interpreter keeps the check immune to whatever this session imported."""
    probe = (
        "import sys, repro.cli; "
        "leaked = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print('LEAKED: %s' % leaked[:5] if leaked else 'CLEAN')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "CLEAN", proc.stdout
