"""MemoryBudget: spec parsing and chunk sizing."""

import pytest

from repro.ooc.budget import (
    MemoryBudget,
    MemoryBudgetError,
    format_budget,
    parse_memory_budget,
)


class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("64MB", 64 * 1024 * 1024),
            ("64mb", 64 * 1024 * 1024),
            ("64 MiB", 64 * 1024 * 1024),
            ("1GB", 1024**3),
            ("1.5KB", 1536),
            ("512", 512),
            ("2k", 2048),
            (4096, 4096),
            (4096.0, 4096),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_memory_budget(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["", "banana", "-1MB", "0", "12XB", None, True, [64]]
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(MemoryBudgetError):
            parse_memory_budget(spec)

    def test_format_budget_round_trips_the_units(self):
        assert format_budget(64 * 1024 * 1024) == "64MB"
        assert parse_memory_budget(format_budget(1536)) == 1536
        assert parse_memory_budget(format_budget(64 * 1024)) == 64 * 1024


class TestMemoryBudget:
    def test_limit_coerces_string_specs(self):
        assert MemoryBudget("2MB").limit == 2 * 1024 * 1024

    def test_coerce_passthrough_and_none(self):
        b = MemoryBudget(1024)
        assert MemoryBudget.coerce(b) is b
        assert MemoryBudget.coerce(None) is None
        assert MemoryBudget.coerce("1KB").limit == 1024

    def test_invalid_chunk_fraction_raises(self):
        with pytest.raises(MemoryBudgetError):
            MemoryBudget(100, chunk_fraction=0.0)
        with pytest.raises(MemoryBudgetError):
            MemoryBudget(100, chunk_fraction=1.5)

    def test_chunk_sizing(self):
        b = MemoryBudget(1024, chunk_fraction=0.25)
        assert b.chunk_bytes == 256
        assert b.chunk_records(16) == 16
        # never zero, even for records wider than the chunk
        assert b.chunk_records(10_000) == 1

    def test_exceeds(self):
        b = MemoryBudget(1024)
        assert not b.exceeds(1024)
        assert b.exceeds(1025)
