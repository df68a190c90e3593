"""ASPaS-style blocked mergesort: equivalence with numpy's stable sort.

The kernel is the single-node sort ablation's (``benchmarks/_ablations.py``),
loaded from the benchmarks directory by path.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import OperatorError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _ablations import aspas_argsort, aspas_sort
finally:
    sys.path.pop(0)


class TestAspasSort:
    def test_small_input_direct(self):
        keys = np.array([5, 1, 4, 2])
        np.testing.assert_array_equal(aspas_argsort(keys), np.argsort(keys, kind="stable"))

    def test_blocked_path(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 100, size=10_000)
        got = aspas_argsort(keys, block=256)
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))

    def test_stability_with_many_ties(self):
        keys = np.array([1, 0, 1, 0, 1, 0, 1, 0] * 100)
        got = aspas_argsort(keys, block=16)
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))

    def test_odd_run_count(self):
        """Block count not a power of two exercises the leftover-run path."""
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 50, size=5 * 64 + 17)
        got = aspas_argsort(keys, block=64)
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))

    def test_sorted_values(self):
        rng = np.random.default_rng(3)
        keys = rng.normal(size=3000)
        np.testing.assert_array_equal(aspas_sort(keys, block=128), np.sort(keys, kind="stable"))

    def test_empty_and_single(self):
        assert len(aspas_argsort(np.array([], dtype=np.int64))) == 0
        np.testing.assert_array_equal(aspas_argsort(np.array([7])), [0])

    def test_invalid_block(self):
        with pytest.raises(OperatorError):
            aspas_argsort(np.array([1, 2]), block=1)

    @settings(max_examples=60)
    @given(
        hnp.arrays(np.int64, st.integers(0, 500), elements=st.integers(-50, 50)),
        st.integers(2, 64),
    )
    def test_property_matches_numpy_stable(self, keys, block):
        got = aspas_argsort(keys, block=block)
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))

    @settings(max_examples=30)
    @given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e6, 1e6)))
    def test_property_float_keys(self, keys):
        got = aspas_sort(keys, block=32)
        np.testing.assert_array_equal(got, np.sort(keys, kind="stable"))
