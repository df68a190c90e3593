"""The columnar text codec against the per-line one.

``read_text_array`` / ``encode_text_block`` move whole files in a fixed
number of array passes; ``parse_line`` / ``format_line`` stay the reference
for what the bytes mean and the only source of error messages.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import FormatError
from repro.formats import EDGE_LIST_SCHEMA, Field, RecordSchema, read_text, read_text_array
from repro.formats import text as text_module
from repro.formats.text import (
    decode_text_block,
    encode_text_block,
    format_line,
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


def integers(low: int, high: int):
    """Any value in range, weighted toward the digit counts and extremes
    where the eight-digit words and the range checks change."""
    edges = [low, low + 1, high - 1, high, 0, -1, 1]
    edges += [s * (10**d - 1) for d in (8, 9, 10, 16, 17, 19) for s in (1, -1)]
    edges += [s * 10**d for d in (8, 9, 16, 18) for s in (1, -1)]
    return st.one_of(
        st.integers(low, high),
        st.sampled_from([v for v in edges if low <= v <= high]),
    )


mixed_rows = st.lists(
    st.tuples(
        integers(-(2**63), 2**63 - 1),
        integers(-(2**31), 2**31 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=40,
)
edge_rows = st.lists(st.tuples(st.integers(-50, 10**12), st.integers(0, 10**6)), max_size=60)


def per_line(path, schema) -> np.ndarray:
    return schema.to_structured(read_text(path, schema))


def respell(value, zeros: int, plus: bool):
    """Another spelling ``int()`` reads as the same integer: an explicit
    ``+`` (``-0`` for zero) and leading zeros, up to 19 digits in all."""
    if not isinstance(value, int):
        return value
    digits = str(abs(value))
    digits = "0" * min(zeros, 19 - len(digits)) + digits
    if value < 0:
        return "-" + digits
    return ("-" if value == 0 else "+") + digits if plus else digits


def render(rows, schema, newline: str, blank_every: int, final_newline: bool,
           spellings=()) -> str:
    """The rows as text, with blank lines, CRLF, respelled integers and a
    cut final terminator."""
    lines = []
    for i, row in enumerate(rows):
        if blank_every and i % blank_every == 0:
            lines.append(newline)
        if spellings:
            zeros, plus = spellings[i % len(spellings)]
            row = tuple(respell(v, zeros, plus) for v in row)
        lines.append(format_line(row, schema).replace("\n", newline))
    text = "".join(lines)
    if not final_newline and text.endswith(newline):
        text = text[: -len(newline)]
    return text


#: other spellings of the integers: (leading zeros, explicit sign)
spellings = st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=4)
#: decode block sizes: a few lines, one line, part of a line, and the real one
block_sizes = st.one_of(st.integers(1, 80), st.just(text_module._BLOCK_BYTES))


# -- decode -----------------------------------------------------------------------


@settings(deadline=None, max_examples=80)
@given(
    rows=mixed_rows,
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_every=st.integers(0, 3),
    final_newline=st.booleans(),
    spelled=spellings,
    block=block_sizes,
)
def test_bulk_decode_equals_parse_line(
    tmp_path_factory, rows, newline, blank_every, final_newline, spelled, block
):
    path = tmp_path_factory.mktemp("codec") / "mixed.txt"
    text = render(rows, MIXED, newline, blank_every, final_newline, spelled)
    path.write_bytes(text.encode())
    want = per_line(path, MIXED)
    # records and blank lines straddle the block boundaries
    with mock.patch.object(text_module, "_BLOCK_BYTES", block):
        got = read_text_array(path, MIXED)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # and it was the numpy byte kernels that read it, not the fallback
    assert decode_text_block(text.encode(), MIXED) is not None


@settings(deadline=None, max_examples=40)
@given(
    rows=edge_rows,
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    spelled=spellings,
    block=block_sizes,
)
def test_bulk_decode_of_edge_lists(tmp_path_factory, rows, newline, final_newline, spelled, block):
    path = tmp_path_factory.mktemp("codec") / "edges.txt"
    path.write_bytes(render(rows, EDGE_LIST_SCHEMA, newline, 2, final_newline, spelled).encode())
    with mock.patch.object(text_module, "_BLOCK_BYTES", block):
        got = read_text_array(path, EDGE_LIST_SCHEMA)
    assert got.tobytes() == per_line(path, EDGE_LIST_SCHEMA).tobytes()


def test_a_generated_edge_list_never_reaches_the_per_line_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(38)
    edges = np.empty(255_000, dtype=EDGE_LIST_SCHEMA.dtype)
    edges["vertex_a"] = rng.integers(0, 10**6, len(edges))
    edges["vertex_b"] = rng.integers(-(2**63), 2**63 - 1, len(edges), dtype=np.int64)
    path = tmp_path / "edges.txt"
    write_text_array(path, edges, EDGE_LIST_SCHEMA)
    calls = []
    monkeypatch.setattr(text_module, "parse_line", lambda *a: calls.append(a))
    got = read_text_array(path, EDGE_LIST_SCHEMA)
    assert calls == []
    assert got.tobytes() == edges.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "1_000\t2\n",          # int() takes underscores, the digit kernel does not
        " 5\t6 \n",            # int() strips spaces
        "1\t2\n \t \n3\t4\n",  # a whitespace-only line is blank
        "+1\t-0\n007\t08\n",
        "1\t2\r",              # a final bare \r is stripped like \r\n
        "١\t٢\n",              # int() reads any Unicode digit
        "",
        "\n\r\n\n",
        "1\t\t2\n",            # int() strips the second tab from '\t2'
        "1\t2\n\t\n3\t4\n",    # a line of one delimiter is blank
        "1\t2\r\r\n",          # rstrip takes every \r
        "1\t" + "0" * 20 + "7\n",  # 21 digits
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
        ("1\t5-3\n", "cannot parse '5-3' as long for field 'vertex_b'"),
        ("-\t1\n", "cannot parse '-' as long for field 'vertex_a'"),
        ("+-5\t1\n", "cannot parse '+-5' as long for field 'vertex_a'"),
        ("1\t\n2\n", "cannot parse '' as long for field 'vertex_b'"),
        ("1\n2\t3\t4\n", "line '1\\n' is missing delimiter '\\t' after field 'vertex_a'"),
        ("1\t2\n3\t99999999999999999999\n",
         "'99999999999999999999' is out of range for long field 'vertex_b'"),
        ("9223372036854775808\t1\n",
         "'9223372036854775808' is out of range for long field 'vertex_a'"),
        ("1\t-9223372036854775809\n",
         "'-9223372036854775809' is out of range for long field 'vertex_b'"),
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


@pytest.mark.parametrize(
    "token,accepted",
    [("2147483647", True), ("-2147483648", True), ("2147483648", False), ("-2147483649", False),
     ("3000000000", False)],
)
def test_integer_fields_hold_32_bits(tmp_path, token, accepted):
    schema = text_schema(["integer", "integer"])
    path = tmp_path / "ints.txt"
    path.write_text(f"1\t{token}\n")
    if accepted:
        assert read_text_array(path, schema).tolist() == [(1, int(token))]
        return
    assert decode_text_block(path.read_bytes(), schema) is None
    message = f"{token!r} is out of range for integer field 'f1'"
    with pytest.raises(FormatError) as bulk:
        read_text_array(path, schema)
    with pytest.raises(FormatError) as line:
        read_text(path, schema)
    assert str(bulk.value) == str(line.value) == message


def test_an_out_of_range_input_ends_run_with_one_error_line(tmp_path, pytestconfig, capsys):
    configs = pytestconfig.rootpath / "configs"
    edges = tmp_path / "edges.txt"
    edges.write_text("1\t2\n3\t99999999999999999999\n")
    code = main([
        "run", "--input-config", str(configs / "graph_edge.xml"),
        "--workflow", str(configs / "hybrid_cut.xml"),
        "--arg", f"input_file={edges}", "--arg", f"output_path={tmp_path / 'out'}",
        "--arg", "num_partitions=2", "--arg", "threshold=30",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        "error: '99999999999999999999' is out of range for long field 'vertex_b'"
    ], err


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
    assert not takes_bulk_codec(text_schema(["long", "long"], ("\0", "\n")))


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
    assert encode_text_block(records, MIXED) == "".join(
        format_line(tuple(r), MIXED) for r in records
    ).encode()


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
    assert encode_text_block(records, MIXED) == b"1,2,1.5,0.1\n-1,-2,1e+300,2.5\n"
    assert format_line(tuple(records[0]), MIXED) == "1,2,1.5,0.1\n"
    assert format_line((1, 2, 1.5, 0.1), MIXED) == "1,2,1.5,0.1\n"


def test_encode_handles_any_delimiter_and_no_records(tmp_path):
    schema = text_schema(["long", "long"], ("%", "\n"))
    assert encode_text_block(schema.to_structured([(1, 2), (3, 4)]), schema) == b"1%2\n3%4\n"
    assert encode_text_block(np.empty(0, dtype=schema.dtype), schema) == b""
    # a schema the bulk codec does not take is written line by line
    wide = text_schema(["long", "double"], ("::", "\n"))
    path = tmp_path / "wide.txt"
    write_text_array(path, wide.to_structured([(1, 2.5), (-3, 0.1)]), wide)
    assert path.read_bytes() == b"1::2.5\n-3::0.1\n"


def test_write_text_array_rejects_binary_schemas(tmp_path):
    from repro.formats import BLAST_INDEX_SCHEMA

    with pytest.raises(FormatError, match="not a text schema"):
        write_text_array(tmp_path / "x", np.empty(0, BLAST_INDEX_SCHEMA.dtype), BLAST_INDEX_SCHEMA)
