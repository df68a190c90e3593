"""A simplified BLASTP search kernel (seed and extend).

muBLASTP builds a k-mer index over each *database partition* and searches
queries against it.  This kernel reproduces the parts of that pipeline whose
cost drives the paper's Figure 12 skew argument:

1. **Index**: every word-size-3 k-mer of every database sequence, position-
   indexed (vectorized base-21 rolling codes).
2. **Seed**: exact k-mer matches between query and database (real BLAST adds
   neighbourhood words above a threshold; exact matching keeps the same
   length-proportional hit statistics at lower constant cost — a documented
   simplification).
3. **Extend**: ungapped X-drop extension along the diagonal of each seed,
   scored with BLOSUM62.

The returned ``work`` (number of extension columns + hits) is a
deterministic, machine-independent measure of search cost: it grows with
both the query length and the database sequence lengths, which is exactly
why partitions with skewed length profiles produce skewed search runtimes
("the runtime of sequence search depends on the distribution of sequence
lengths more than the total size of each partition").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blast.database import SequenceDatabase
from repro.blast.scoring import BLOSUM62
from repro.errors import PaParError

WORD_SIZE = 3
ALPHABET_SIZE = 21
X_DROP = 7
#: modeled seconds per seed hit and per extension column (single core)
HIT_COST_S = 40e-9
EXT_COST_S = 6e-9


@dataclass
class SearchResult:
    """Outcome of one query (or batch) against one partition."""

    num_hits: int
    extension_columns: int
    best_score: int

    @property
    def work(self) -> int:
        """Deterministic work units (hits + extension columns)."""
        return self.num_hits + self.extension_columns

    @property
    def modeled_seconds(self) -> float:
        """Single-core search time under the fixed per-unit costs."""
        return self.num_hits * HIT_COST_S + self.extension_columns * EXT_COST_S

    def __add__(self, other: "SearchResult") -> "SearchResult":
        return SearchResult(
            num_hits=self.num_hits + other.num_hits,
            extension_columns=self.extension_columns + other.extension_columns,
            best_score=max(self.best_score, other.best_score),
        )


def _kmer_codes(residues: np.ndarray) -> np.ndarray:
    """Rolling base-21 codes of all length-3 windows of ``residues``."""
    if len(residues) < WORD_SIZE:
        return np.empty(0, dtype=np.int64)
    r = residues.astype(np.int64)
    return r[:-2] * ALPHABET_SIZE**2 + r[1:-1] * ALPHABET_SIZE + r[2:]


class PartitionIndex:
    """K-mer index over one database partition (what muBLASTP builds)."""

    def __init__(self, db: SequenceDatabase) -> None:
        self.db = db
        codes_parts = []
        pos_parts = []
        seq_parts = []
        for i in range(db.num_sequences):
            seq = db.sequence(i)
            codes = _kmer_codes(seq)
            codes_parts.append(codes)
            pos_parts.append(np.arange(len(codes), dtype=np.int64))
            seq_parts.append(np.full(len(codes), i, dtype=np.int64))
        if codes_parts:
            codes = np.concatenate(codes_parts)
            positions = np.concatenate(pos_parts)
            seq_ids = np.concatenate(seq_parts)
        else:
            codes = np.empty(0, dtype=np.int64)
            positions = np.empty(0, dtype=np.int64)
            seq_ids = np.empty(0, dtype=np.int64)
        order = np.argsort(codes, kind="stable")
        self._codes = codes[order]
        self._positions = positions[order]
        self._seq_ids = seq_ids[order]

    @property
    def num_kmers(self) -> int:
        return len(self._codes)

    def lookup(self, code: int) -> tuple[np.ndarray, np.ndarray]:
        """(seq_ids, positions) of every database occurrence of ``code``."""
        lo = np.searchsorted(self._codes, code, side="left")
        hi = np.searchsorted(self._codes, code, side="right")
        return self._seq_ids[lo:hi], self._positions[lo:hi]

    # -- search ---------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        max_extensions_per_kmer: int = 64,
        two_hit: bool = False,
        window: int = 40,
    ) -> SearchResult:
        """Search one encoded query against this partition.

        With ``two_hit=True`` the kernel applies BLAST's two-hit heuristic:
        an extension triggers only when two non-overlapping hits land on the
        same diagonal of the same subject within ``window`` columns — far
        fewer extensions for the same sensitivity on real matches.
        """
        if query.dtype != np.uint8:
            raise PaParError("query must be an encoded uint8 residue array")
        q_codes = _kmer_codes(query)
        num_hits = 0
        ext_cols = 0
        best = 0
        # two-hit state: (subject, diagonal) -> query position of the last hit
        last_hit: dict[tuple[int, int], int] = {}
        for q_pos, code in enumerate(q_codes):
            seq_ids, d_positions = self.lookup(int(code))
            n = len(seq_ids)
            if n == 0:
                continue
            num_hits += n
            extended = 0
            for j in range(n):
                if extended >= max_extensions_per_kmer:
                    break
                seq_id = int(seq_ids[j])
                d_pos = int(d_positions[j])
                if two_hit:
                    diag = d_pos - q_pos
                    key = (seq_id, diag)
                    prev = last_hit.get(key)
                    if prev is None or q_pos - prev > window:
                        # first hit on this diagonal (or stale): remember it
                        last_hit[key] = q_pos
                        continue
                    if q_pos - prev < WORD_SIZE:
                        # overlapping hit: keep the older anchor (BLAST rule)
                        continue
                    # second, non-overlapping hit within the window: extend
                    last_hit[key] = q_pos
                cols, score = self._extend(query, int(q_pos), seq_id, d_pos)
                ext_cols += cols
                extended += 1
                if score > best:
                    best = score
        return SearchResult(num_hits=num_hits, extension_columns=ext_cols, best_score=best)

    def _extend(
        self, query: np.ndarray, q_pos: int, seq_id: int, d_pos: int
    ) -> tuple[int, int]:
        """Ungapped X-drop extension along one diagonal; returns (columns, score)."""
        subject = self.db.sequence(seq_id)
        # seed score
        score = int(
            BLOSUM62[query[q_pos], subject[d_pos]]
            + BLOSUM62[query[q_pos + 1], subject[d_pos + 1]]
            + BLOSUM62[query[q_pos + 2], subject[d_pos + 2]]
        )
        best = score
        cols = WORD_SIZE
        # extend right
        qi, di = q_pos + WORD_SIZE, d_pos + WORD_SIZE
        while qi < len(query) and di < len(subject):
            score += int(BLOSUM62[query[qi], subject[di]])
            cols += 1
            if score > best:
                best = score
            if best - score > X_DROP:
                break
            qi += 1
            di += 1
        # extend left
        score = best
        qi, di = q_pos - 1, d_pos - 1
        while qi >= 0 and di >= 0:
            score += int(BLOSUM62[query[qi], subject[di]])
            cols += 1
            if score > best:
                best = score
            if best - score > X_DROP:
                break
            qi -= 1
            di -= 1
        return cols, best

    def search_batch(self, queries: list[np.ndarray]) -> SearchResult:
        """Search a whole query batch; results accumulate."""
        total = SearchResult(0, 0, 0)
        for q in queries:
            total = total + self.search(q)
        return total


def partition_makespan(
    partitions: list[SequenceDatabase], queries: list[np.ndarray]
) -> tuple[float, list[float]]:
    """Modeled parallel search time: every partition searched concurrently.

    Returns ``(makespan_seconds, per_partition_seconds)`` — the paper's
    Figure 12 quantity is the makespan (slowest partition), which is what
    length skew inflates under block partitioning.
    """
    times = []
    for part in partitions:
        index = PartitionIndex(part)
        result = index.search_batch(queries)
        times.append(result.modeled_seconds)
    return (max(times) if times else 0.0, times)
