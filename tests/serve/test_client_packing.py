"""The client's two ways of packing rows into a frame — one ``struct.pack``
where the dtype allows, numpy otherwise — produce the same bytes, and rows
that fit neither still reach the server as JSON and earn its ``400``."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA
from repro.serve import ServeClient, protocol

from tests.serve.test_server import blast_args, tcp_daemon

INT32 = st.integers(-2**31, 2**31 - 1)


def offline_client(dtype):
    """A client as ``connect`` leaves it after ``hello``, without a socket."""
    client = ServeClient("nowhere", 0)
    client._frame_dtype = dtype
    client._row_codes = protocol.row_struct_codes(dtype)
    return client


class TestRowStructCodes:
    def test_flat_little_endian_numeric_dtypes_have_codes(self):
        assert protocol.row_struct_codes(BLAST_INDEX_SCHEMA.dtype) == "iiii"
        assert protocol.row_struct_codes(EDGE_LIST_SCHEMA.dtype) == "qq"
        mixed = np.dtype([("a", "u1"), ("b", "<f4"), ("c", "<u8"), ("d", "<f8")])
        assert protocol.row_struct_codes(mixed) == "BfQd"

    def test_everything_else_is_left_to_numpy(self):
        for dtype in (
            np.dtype([("a", "<u4"), ("b", "<f8")], align=True),       # padded
            np.dtype([("a", ">u4")]),                                  # big-endian
            np.dtype([("a", "<u4", (2,))]),                            # subarray
            np.dtype([("a", "<u4"), ("s", "S8")]),                     # bytes
            np.dtype({"names": ["a", "b"], "formats": ["<u4", "<u4"],
                      "offsets": [4, 0]}),                             # reordered
            np.dtype("<u4"),                                           # not a record
        ):
            assert protocol.row_struct_codes(dtype) is None, dtype


class TestFramesAreTheSameBytes:
    @given(rows=st.lists(st.tuples(INT32, INT32, INT32, INT32), min_size=1, max_size=50))
    def test_struct_and_numpy_pack_alike(self, rows):
        dtype = BLAST_INDEX_SCHEMA.dtype
        packed = offline_client(dtype)._frame(rows)
        assert packed == protocol.encode_frame(np.array(rows, dtype=dtype))
        assert packed == offline_client(dtype)._frame([list(r) for r in rows])
        # and the array path: no struct involved, same frame
        assert packed == offline_client(dtype)._frame(np.array(rows, dtype=dtype))

    def test_encode_frame_is_marker_header_payload(self, blast_index):
        records = blast_index[100:107]
        payload = np.ascontiguousarray(records).tobytes()
        assert protocol.encode_frame(records) == (
            protocol.FRAME_MARKER
            + protocol.pack_frame_header(len(records), payload) + payload)
        assert protocol.encode_frame(blast_index[100:120:3]) == protocol.encode_frame(
            np.ascontiguousarray(blast_index[100:120:3]))

    def test_rows_struct_refuses_fall_through(self):
        client = offline_client(BLAST_INDEX_SCHEMA.dtype)
        for misfit in (
            [[1, 2, 3], [1, 2, 3, 4, 5]],   # widths that only add up
            [[1, 2, 3, 2**40]],             # out of range
            [["x", 1, 2, 3]],               # not a number
            [[1, 2]],                       # too short
            [7],                            # not rows at all
        ):
            assert client._frame(misfit) is None, misfit
        # numpy's reading of a float is kept: struct refuses, numpy truncates
        assert client._frame([[1.0, 2, 3, 4]]) == client._frame([[1, 2, 3, 4]])


class TestAgainstADaemon:
    def test_a_misfit_pair_of_rows_is_the_servers_400(self, papar, blast_file, tmp_path):
        with tcp_daemon(papar, blast_args(blast_file, tmp_path)) as (addr, holder):
            with ServeClient(*addr) as client:
                r = client.append([[1, 2, 3], [1, 2, 3, 4, 5]])
                assert (r["ok"], r["code"]) == (False, 400) and "schema" in r["error"]
                assert client.append([(5, 6, 7, 8), (9, 10, 11, 12)])["ok"]
        server = holder["server"]
        assert server.state.log[-1].tolist() == [(5, 6, 7, 8), (9, 10, 11, 12)]
        doc = server.metrics_doc()
        assert (doc["append_frames"], doc["rejected"]) == (1, 1)
