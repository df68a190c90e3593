"""Record formats: schemas, binary / text readers-writers, packed + CSC.

This package is the runtime behind PaPar's *input-data configuration file*
interface (paper Section III-A): a schema describes one element of the input
(Figures 4 and 5), and the format readers implement the Hadoop
``InputFormat`` contract over it so mappers read their own slices.
"""

from repro.formats.binary import (
    BinaryInputFormat,
    read_binary,
    write_binary,
    write_partitions,
)
from repro.formats.packed import CSCBlock, PackedRecords, compression_ratio, pack, unpack
from repro.formats.records import (
    BLAST_INDEX_SCHEMA,
    EDGE_LIST_SCHEMA,
    Field,
    RecordSchema,
)
from repro.formats.text import (
    ByteRangeTextInputFormat,
    TextInputFormat,
    read_text,
    read_text_array,
    write_text,
    write_text_array,
)

__all__ = [
    "Field",
    "RecordSchema",
    "BLAST_INDEX_SCHEMA",
    "EDGE_LIST_SCHEMA",
    "BinaryInputFormat",
    "TextInputFormat",
    "ByteRangeTextInputFormat",
    "read_binary",
    "write_binary",
    "write_partitions",
    "read_text",
    "read_text_array",
    "write_text",
    "write_text_array",
    "PackedRecords",
    "CSCBlock",
    "pack",
    "unpack",
    "compression_ratio",
]
