"""Karlin-Altschul statistics: bit scores and e-values for BLAST hits.

BLAST reports hit significance through the Karlin-Altschul framework: a raw
alignment score ``S`` becomes a *bit score* ``S' = (lambda*S - ln K)/ln 2``
and the expected number of chance alignments at least that good in a search
of an ``m x n`` space is ``E = m * n * 2^-S'``.

``lambda`` and ``K`` are the ungapped BLOSUM62 parameters for the standard
amino-acid background frequencies (the NCBI values).
"""

from __future__ import annotations

import math

from repro.errors import PaParError

#: NCBI ungapped BLOSUM62 parameters
LAMBDA_UNGAPPED = 0.3176
K_UNGAPPED = 0.134


def bit_score(raw_score: int, lam: float = LAMBDA_UNGAPPED, k: float = K_UNGAPPED) -> float:
    """Normalized bit score of a raw alignment score."""
    return (lam * raw_score - math.log(k)) / math.log(2.0)


def e_value(
    raw_score: int,
    query_length: int,
    database_length: int,
    lam: float = LAMBDA_UNGAPPED,
    k: float = K_UNGAPPED,
) -> float:
    """Expected number of chance hits scoring at least ``raw_score``."""
    if query_length < 1 or database_length < 1:
        raise PaParError("query and database lengths must be positive")
    return query_length * database_length * math.pow(2.0, -bit_score(raw_score, lam, k))

