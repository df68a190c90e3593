"""Karlin-Altschul statistics: the bit scores and e-values of search hits."""

import math

import pytest

from repro.blast.statistics import bit_score, e_value
from repro.errors import PaParError


class TestKarlinAltschul:
    def test_bit_score_monotone(self):
        assert bit_score(100) > bit_score(50) > bit_score(10)

    def test_e_value_decreases_with_score(self):
        e1 = e_value(30, 100, 1_000_000)
        e2 = e_value(60, 100, 1_000_000)
        assert e2 < e1

    def test_e_value_grows_with_search_space(self):
        assert e_value(50, 100, 10_000_000) > e_value(50, 100, 10_000)

    def test_known_magnitude(self):
        """A raw score of 52 is ~27 bits under the ungapped parameters."""
        bits = bit_score(52)
        assert 25 < bits < 29
        e = e_value(52, 100, 1_000_000)
        assert math.isclose(e, 100 * 1e6 * 2**-bits, rel_tol=1e-12)

    def test_invalid_lengths(self):
        with pytest.raises(PaParError):
            e_value(50, 0, 100)
