"""Record formats: schemas, binary / text readers-writers, packed records.

This package is the runtime behind PaPar's *input-data configuration file*
interface (paper Section III-A), the programming-free alternative to
subclassing Hadoop's ``InputFormat``: a schema describes one element of the
input (Figures 4 and 5), and the readers turn a file of them into records.
A run reads its input through one row-range view of the file,
:class:`~repro.formats.binary.InputFileView`, so each rank reads its own
slice.
"""

from repro._lazy import lazy_exports

# names load on first use: importing one codec does not load the others
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.formats.records": (
        "Field", "RecordSchema", "BLAST_INDEX_SCHEMA", "EDGE_LIST_SCHEMA",
    ),
    "repro.formats.binary": (
        "InputFileView", "read_binary", "write_binary", "write_partitions",
    ),
    "repro.formats.text": (
        "read_text", "read_text_array", "write_text", "write_text_array",
    ),
    "repro.formats.packed": (
        "PackedRecords", "pack", "unpack",
    ),
})
