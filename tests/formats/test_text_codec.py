"""The columnar text codec against the per-line one.

``read_text_array`` / ``format_records`` move whole files in a fixed number
of calls; ``parse_line`` / ``format_line`` stay the reference for what the
bytes mean and the only source of error messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import EDGE_LIST_SCHEMA, Field, RecordSchema, read_text, read_text_array
from repro.formats.text import (
    _decode_bulk,
    format_line,
    format_records,
    takes_bulk_codec,
    write_text_array,
)

MIXED = RecordSchema(
    id="mixed",
    fields=(
        Field("a", "long"),
        Field("b", "integer"),
        Field("x", "double"),
        Field("y", "float"),
    ),
    input_format="text",
    delimiters=(",", ",", ",", "\n"),
)

mixed_rows = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-(2**31), 2**31 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=40,
)
edge_rows = st.lists(st.tuples(st.integers(-50, 10**12), st.integers(0, 10**6)), max_size=60)


def per_line(path, schema) -> np.ndarray:
    return schema.to_structured(read_text(path, schema))


def render(rows, schema, newline: str, blank_every: int, final_newline: bool) -> str:
    """The rows as text, with blank lines, CRLF and a cut final terminator."""
    lines = []
    for i, row in enumerate(rows):
        if blank_every and i % blank_every == 0:
            lines.append(newline)
        lines.append(format_line(row, schema).replace("\n", newline))
    text = "".join(lines)
    if not final_newline and text.endswith(newline):
        text = text[: -len(newline)]
    return text


# -- decode -----------------------------------------------------------------------


@settings(deadline=None, max_examples=80)
@given(
    rows=mixed_rows,
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_every=st.integers(0, 3),
    final_newline=st.booleans(),
)
def test_bulk_decode_equals_parse_line(tmp_path_factory, rows, newline, blank_every, final_newline):
    path = tmp_path_factory.mktemp("codec") / "mixed.txt"
    text = render(rows, MIXED, newline, blank_every, final_newline)
    path.write_bytes(text.encode())
    want = per_line(path, MIXED)
    got = read_text_array(path, MIXED)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # and it was the C tokenizer that read it, not the fallback
    assert _decode_bulk(text.encode(), MIXED) is not None


@settings(deadline=None, max_examples=40)
@given(rows=edge_rows, newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans())
def test_bulk_decode_of_edge_lists(tmp_path_factory, rows, newline, final_newline):
    path = tmp_path_factory.mktemp("codec") / "edges.txt"
    path.write_bytes(render(rows, EDGE_LIST_SCHEMA, newline, 2, final_newline).encode())
    assert read_text_array(path, EDGE_LIST_SCHEMA).tobytes() == per_line(path, EDGE_LIST_SCHEMA).tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "1_000\t2\n",          # int() takes underscores, the C tokenizer does not
        " 5\t6 \n",            # int() strips spaces
        "1\t2\n \t \n3\t4\n",  # a whitespace-only line is blank
        "+1\t-0\n007\t08\n",
        "1\t2\r",              # a final bare \r is stripped like \r\n
        "١\t٢\n",              # int() reads any Unicode digit
        "",
        "\n\r\n\n",
    ],
)
def test_what_the_bulk_decoder_declines_reads_as_before(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode())
    assert read_text_array(path, EDGE_LIST_SCHEMA).tolist() == per_line(path, EDGE_LIST_SCHEMA).tolist()


def test_nan_and_inf_tokens_still_parse(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("1,2,nan,inf\n3,4,-inf,1e400\n")
    got = read_text_array(path, MIXED)
    assert np.isnan(got["x"][0]) and got["x"][1] == -np.inf
    assert got["y"].tolist() == [np.inf, np.inf]


@pytest.mark.parametrize(
    "text,message",
    [
        ("1\t2\n3\n", "line '3\\n' is missing delimiter '\\t' after field 'vertex_a'"),
        ("1\t2\n3\tx\n", "cannot parse 'x' as long for field 'vertex_b'"),
        ("1\t2\t3\n", "cannot parse '2\\t3' as long for field 'vertex_b'"),
        ("1\t2.5\n", "cannot parse '2.5' as long for field 'vertex_b'"),
        ("1\t\n", "cannot parse '' as long for field 'vertex_b'"),
        ("1\r2\t3\n", "cannot parse '1\\r2' as long for field 'vertex_a'"),
    ],
)
def test_malformed_lines_raise_the_per_line_message(tmp_path, text, message):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as bulk:
        read_text_array(path, EDGE_LIST_SCHEMA)
    with pytest.raises(FormatError) as line:
        read_text(path, EDGE_LIST_SCHEMA)
    assert str(bulk.value) == str(line.value) == message


# -- which schemas -----------------------------------------------------------------


def text_schema(types, delimiters=()):
    fields = tuple(Field(f"f{i}", t) for i, t in enumerate(types))
    return RecordSchema(id="s", fields=fields, input_format="text", delimiters=delimiters)


def test_which_schemas_take_the_bulk_codec():
    assert takes_bulk_codec(EDGE_LIST_SCHEMA)
    assert takes_bulk_codec(EDGE_LIST_SCHEMA.with_field("indegree", "long"))
    assert takes_bulk_codec(MIXED)
    assert takes_bulk_codec(text_schema(["long"]))
    assert not takes_bulk_codec(text_schema(["long", "string"]))
    assert not takes_bulk_codec(text_schema(["long", "long"], ("::", "\n")))
    assert not takes_bulk_codec(text_schema(["long", "long", "long"], ("\t", ",", "\n")))
    assert not takes_bulk_codec(text_schema(["long", "long"], ("\t", ";")))
    assert not takes_bulk_codec(text_schema(["long", "long"], ("-", "\n")))
    assert not takes_bulk_codec(text_schema(["long", "long"], ("e", "\n")))
    assert not takes_bulk_codec(text_schema(["long", "long"], ("§", "\n")))


def test_other_schemas_keep_the_per_line_path(tmp_path):
    schema = text_schema(["long", "double"], ("::", "\n"))
    path = tmp_path / "wide.txt"
    path.write_text("1::2.5\n\n-3::1e3\n")
    assert read_text_array(path, schema).tolist() == [(1, 2.5), (-3, 1000.0)]


# -- encode -----------------------------------------------------------------------


@settings(deadline=None, max_examples=80)
@given(rows=mixed_rows)
def test_bulk_encode_equals_format_line(rows):
    records = MIXED.to_structured(rows)
    assert format_records(records, MIXED) == "".join(
        format_line(tuple(r), MIXED) for r in records
    )


@settings(deadline=None, max_examples=40)
@given(rows=mixed_rows)
def test_encode_then_decode_is_lossless(tmp_path_factory, rows):
    records = MIXED.to_structured(rows)
    path = tmp_path_factory.mktemp("codec") / "out.txt"
    write_text_array(path, records, MIXED)
    assert read_text_array(path, MIXED).tobytes() == records.tobytes()


def test_double_fields_are_written_as_plain_numbers():
    """repr() of a numpy float64 names its type; a text file must not."""
    records = MIXED.to_structured([(1, 2, 1.5, 0.1), (-1, -2, 1e300, 2.5)])
    assert format_records(records, MIXED) == "1,2,1.5,0.1\n-1,-2,1e+300,2.5\n"
    assert format_line(tuple(records[0]), MIXED) == "1,2,1.5,0.1\n"
    assert format_line((1, 2, 1.5, 0.1), MIXED) == "1,2,1.5,0.1\n"


def test_encode_handles_any_delimiter_and_no_records():
    schema = text_schema(["long", "long"], ("%", "\n"))
    assert format_records(schema.to_structured([(1, 2), (3, 4)]), schema) == "1%2\n3%4\n"
    assert format_records(np.empty(0, dtype=schema.dtype), schema) == ""


def test_write_text_array_rejects_binary_schemas(tmp_path):
    from repro.formats import BLAST_INDEX_SCHEMA

    with pytest.raises(FormatError, match="not a text schema"):
        write_text_array(tmp_path / "x", np.empty(0, BLAST_INDEX_SCHEMA.dtype), BLAST_INDEX_SCHEMA)
