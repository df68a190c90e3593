"""The wire protocol: JSON envelope validation, response shapes, and the
crc-framed binary ``append`` encoding (which is never trusted)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA
from repro.formats.records import Field, RecordSchema
from repro.ooc.runfile import FRAME, descr_dtype, pack_frame_header
from repro.serve import protocol


class TestDecode:
    def test_valid_verbs_decode(self):
        for op in ("query", "snapshot", "drain", "hello"):
            assert protocol.decode_request(
                json.dumps({"op": op}).encode()
            )["op"] == op

    def test_append_needs_rows(self):
        ok = protocol.decode_request(b'{"op": "append", "rows": [[1, 2]]}')
        assert ok["rows"] == [[1, 2]]
        for bad in (b'{"op": "append"}', b'{"op": "append", "rows": []}',
                    b'{"op": "append", "rows": "x"}'):
            with pytest.raises(protocol.ProtocolError, match="rows"):
                protocol.decode_request(bad)

    def test_not_json(self):
        with pytest.raises(protocol.ProtocolError, match="not valid JSON"):
            protocol.decode_request(b"hello\n")

    def test_not_an_object(self):
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.decode_request(b"[1, 2]")

    def test_unknown_op(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.decode_request(b'{"op": "restart"}')


class TestEncode:
    def test_response_is_one_newline_terminated_line(self):
        line = protocol.encode_response(protocol.ok("query", generation=3))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert json.loads(line) == {"ok": True, "op": "query", "generation": 3}

    def test_error_envelope_carries_code(self):
        err = protocol.error(protocol.OVERLOADED, "full", op="append")
        assert err == {"ok": False, "code": 429, "error": "full", "op": "append"}

    def test_rejection_codes_are_distinct(self):
        assert len({protocol.BAD_REQUEST, protocol.OVERLOADED,
                    protocol.DRAINING}) == 3


def split_frame(frame: bytes):
    """(marker, header, payload) of one encoded frame."""
    return frame[:1], frame[1:1 + FRAME.size], frame[1 + FRAME.size:]


def sample_records(schema, n=5):
    rows = [tuple(10 * i + j for j in range(len(schema.fields)))
            for i in range(n)]
    return schema.to_structured(rows)


class TestFrame:
    @pytest.mark.parametrize("schema", [BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA],
                             ids=lambda s: s.id)
    def test_round_trip_through_hello_and_a_frame(self, schema):
        records = sample_records(schema)
        # the dtype travels as JSON in the hello response ...
        answer = json.loads(protocol.encode_response(
            protocol.hello(protocol.wire_dtype(schema))))
        assert answer["ok"] and answer["frames"] is True
        dtype = descr_dtype(answer["dtype"])
        assert dtype == schema.dtype
        # ... and the records as one frame
        marker, head, payload = split_frame(protocol.encode_frame(records))
        assert marker == protocol.FRAME_MARKER
        assert protocol.frame_payload_size(head) == len(payload) == records.nbytes
        decoded = protocol.decode_frame(head, payload, dtype)
        assert decoded.dtype == schema.dtype
        np.testing.assert_array_equal(decoded, records)

    def test_the_marker_cannot_start_a_json_line(self):
        with pytest.raises(UnicodeDecodeError):
            protocol.FRAME_MARKER.decode("utf-8")

    def test_flipped_payload_bit_fails_the_crc(self):
        _, head, payload = split_frame(
            protocol.encode_frame(sample_records(BLAST_INDEX_SCHEMA)))
        flipped = bytes([payload[0] ^ 0x01]) + payload[1:]
        with pytest.raises(protocol.ProtocolError, match="crc mismatch"):
            protocol.decode_frame(head, flipped, BLAST_INDEX_SCHEMA.dtype)

    def test_zero_records_is_refused(self):
        head = pack_frame_header(0, b"")
        with pytest.raises(protocol.ProtocolError, match="non-empty"):
            protocol.decode_frame(head, b"", BLAST_INDEX_SCHEMA.dtype)

    def test_payload_must_be_records_times_itemsize(self):
        dtype = BLAST_INDEX_SCHEMA.dtype
        ragged = sample_records(BLAST_INDEX_SCHEMA).tobytes() + b"\x00"
        with pytest.raises(protocol.ProtocolError, match="payload holds"):
            protocol.decode_frame(pack_frame_header(5, ragged), ragged, dtype)
        whole = sample_records(BLAST_INDEX_SCHEMA).tobytes()
        with pytest.raises(protocol.ProtocolError, match="declares 4 records"):
            protocol.decode_frame(pack_frame_header(4, whole), whole, dtype)

    def test_key_bytes_are_refused(self):
        payload = sample_records(BLAST_INDEX_SCHEMA, n=1).tobytes()
        head = pack_frame_header(1, payload[8:], key_bytes=payload[:8])
        with pytest.raises(protocol.ProtocolError, match="no key bytes"):
            protocol.decode_frame(head, payload, BLAST_INDEX_SCHEMA.dtype)

    def test_oversize_payload_is_refused_from_the_header_alone(self):
        head = FRAME.pack(0, 1, 0, 0, protocol.MAX_LINE + 1)
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.frame_payload_size(head)
        assert protocol.frame_payload_size(
            FRAME.pack(0, 1, 0, 0, protocol.MAX_LINE)) == protocol.MAX_LINE

    def test_a_string_schema_never_advertises_frames(self):
        schema = RecordSchema(
            "named", (Field("id", "long"), Field("name", "string")),
            input_format="text",
        )
        assert protocol.wire_dtype(schema) is None
        answer = protocol.hello(protocol.wire_dtype(schema))
        assert answer["frames"] is False and answer["dtype"] is None
        payload = b"\x00" * 8
        with pytest.raises(protocol.ProtocolError, match="does not take frames"):
            protocol.decode_frame(pack_frame_header(1, payload), payload, None)


class TestRowsToRecords:
    def test_lists_of_lists_are_rows_not_an_extra_axis(self):
        """``np.array([[1, 2, 3, 4]], dtype=structured)`` is a (1, 4) array
        with each scalar broadcast over every field."""
        rows = [[1, 2, 3, 4], [5, 6, 7, 8]]
        records = protocol.rows_to_records(rows, BLAST_INDEX_SCHEMA.dtype)
        assert records.shape == (2,)
        assert records.tolist() == [(1, 2, 3, 4), (5, 6, 7, 8)]

    def test_a_record_array_passes_through_untouched(self):
        records = sample_records(BLAST_INDEX_SCHEMA)
        assert protocol.rows_to_records(records, records.dtype) is records
        # another layout is re-read row by row, by position
        wide = records.astype([(n, "<i8") for n in records.dtype.names])
        np.testing.assert_array_equal(
            protocol.rows_to_records(wide, records.dtype), records)

    @pytest.mark.parametrize("rows", [[["x", 1, 2, 3]], [[1, 2]], [5],
                                      [[1, 2, 3, 2 ** 40]]])
    def test_rows_that_do_not_fit_raise(self, rows):
        with pytest.raises((TypeError, ValueError, OverflowError)):
            protocol.rows_to_records(rows, BLAST_INDEX_SCHEMA.dtype)


def test_the_frame_helpers_cost_the_daemon_one_module():
    """``serve`` shares the run file's frame layout, not the out-of-core
    machinery behind it: importing the daemon loads ``repro.ooc.runfile``
    and nothing else of that package."""
    probe = ("import sys, repro.serve; "
             "print(sorted(m for m in sys.modules if m.startswith('repro.ooc')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['repro.ooc', 'repro.ooc.runfile']"
