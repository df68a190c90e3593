"""Byte-range text splitting: Hadoop's exactly-once line ownership protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import ByteRangeTextInputFormat, EDGE_LIST_SCHEMA, write_text


def make_file(tmp_path, rows, name="edges.txt"):
    path = tmp_path / name
    write_text(path, rows, EDGE_LIST_SCHEMA)
    return path


ROWS = [(i, i * 2 + 1) for i in range(57)]


class TestExactlyOnce:
    @pytest.mark.parametrize("num_splits", [1, 2, 3, 5, 8, 20])
    def test_every_line_read_exactly_once(self, tmp_path, num_splits):
        path = make_file(tmp_path, ROWS)
        fmt = ByteRangeTextInputFormat(path, EDGE_LIST_SCHEMA)
        splits = fmt.get_splits(num_splits)
        assert len(splits) == num_splits
        seen = [r for split in splits for r in fmt.get_record_reader(split)]
        assert seen == ROWS

    def test_splits_are_byte_ranges(self, tmp_path):
        path = make_file(tmp_path, ROWS)
        fmt = ByteRangeTextInputFormat(path, EDGE_LIST_SCHEMA)
        splits = fmt.get_splits(4)
        assert sum(s.length for s in splits) == path.stat().st_size
        # byte ranges need not align to line boundaries
        assert splits[0].start == 0

    def test_more_splits_than_lines(self, tmp_path):
        rows = [(1, 2), (3, 4)]
        path = make_file(tmp_path, rows)
        fmt = ByteRangeTextInputFormat(path, EDGE_LIST_SCHEMA)
        splits = fmt.get_splits(10)
        assert len(splits) == 10
        seen = [r for split in splits for r in fmt.get_record_reader(split)]
        assert seen == rows

    def test_single_long_line(self, tmp_path):
        rows = [(123456789012, 987654321098)]
        path = make_file(tmp_path, rows)
        fmt = ByteRangeTextInputFormat(path, EDGE_LIST_SCHEMA)
        splits = fmt.get_splits(4)
        assert len(splits) == 4
        seen = [r for split in splits for r in fmt.get_record_reader(split)]
        assert seen == rows

    def test_binary_schema_rejected(self, tmp_path):
        from repro.formats import BLAST_INDEX_SCHEMA

        path = make_file(tmp_path, [(1, 2)])
        with pytest.raises(FormatError):
            ByteRangeTextInputFormat(path, BLAST_INDEX_SCHEMA)

    def test_zero_splits_rejected(self, tmp_path):
        path = make_file(tmp_path, [(1, 2)])
        with pytest.raises(FormatError):
            ByteRangeTextInputFormat(path, EDGE_LIST_SCHEMA).get_splits(0)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)),
                        min_size=1, max_size=60),
        num_splits=st.integers(1, 12),
    )
    def test_property_exactly_once(self, tmp_path_factory, values, num_splits):
        tmp = tmp_path_factory.mktemp("brt")
        path = make_file(tmp, values, name="f.txt")
        fmt = ByteRangeTextInputFormat(path, EDGE_LIST_SCHEMA)
        splits = fmt.get_splits(num_splits)
        assert len(splits) == num_splits
        seen = [r for split in splits for r in fmt.get_record_reader(split)]
        assert seen == values
