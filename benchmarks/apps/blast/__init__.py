"""The muBLASTP driving application (paper Section II-A, IV-B).

Synthetic protein databases with env_nr / nr-like length profiles, the
four-tuple index, muBLASTP's own block/cyclic partitioners (the Figure 13
baseline), the pointer-recalculation add-on, a simplified seed-and-extend
BLASTP search kernel (for Figure 12's skew measurements), and query batch
construction.
"""

from .database import (
    ENV_NR_PROFILE,
    NR_PROFILE,
    PROFILES,
    SequenceDatabase,
    generate_database,
)
from .index import (
    INDEX_HEADER,
    build_index,
    extract_partition,
    generate_index,
    recalculate_pointers,
)
from .partition import baseline_partition_time, mublastp_partition
from .queries import BATCH_KINDS, make_batch
from .scoring import ALPHABET, BLOSUM62, encode
from .search import (
    PartitionIndex,
    SearchResult,
    partition_makespan,
)

__all__ = [
    "SequenceDatabase",
    "generate_database",
    "ENV_NR_PROFILE",
    "NR_PROFILE",
    "PROFILES",
    "build_index",
    "generate_index",
    "recalculate_pointers",
    "extract_partition",
    "INDEX_HEADER",
    "mublastp_partition",
    "baseline_partition_time",
    "make_batch",
    "BATCH_KINDS",
    "encode",
    "ALPHABET",
    "BLOSUM62",
    "PartitionIndex",
    "SearchResult",
    "partition_makespan",
]
