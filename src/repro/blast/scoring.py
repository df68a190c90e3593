"""Protein alphabet encoding and the BLOSUM62 scoring matrix.

muBLASTP scores alignments with BLOSUM62; this module carries the standard
20x20 matrix (plus ``X`` as a catch-all) and the residue <-> code mapping
used by the encoded sequence data the index points into.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PaParError

#: the 20 standard amino acids, in BLOSUM62 row order, plus X (unknown)
ALPHABET = "ARNDCQEGHILKMFPSTWYVX"

#: residue character -> small integer code
CHAR_TO_CODE = {c: i for i, c in enumerate(ALPHABET)}

# BLOSUM62 upper-triangle source (standard NCBI values), row order = ALPHABET
# without X; X scores -1 against everything and -1 with itself.
_BLOSUM62_ROWS = [
    # A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],  # A
    [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],  # R
    [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],  # N
    [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],  # D
    [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],  # C
    [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],  # Q
    [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],  # E
    [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],  # G
    [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],  # H
    [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],  # I
    [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],  # L
    [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],  # K
    [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],  # M
    [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],  # F
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],  # P
    [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],  # S
    [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],  # T
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],  # W
    [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -2],  # Y
    [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -2, 4],  # V
]


def _build_blosum62() -> np.ndarray:
    n = len(ALPHABET)
    matrix = np.full((n, n), -1, dtype=np.int8)
    core = np.array(_BLOSUM62_ROWS, dtype=np.int8)
    matrix[:20, :20] = core
    return matrix


#: BLOSUM62 as a (21, 21) int8 array indexed by residue codes
BLOSUM62 = _build_blosum62()


def encode(sequence: str) -> np.ndarray:
    """Encode a protein string into residue codes (uint8 array)."""
    try:
        return np.frombuffer(
            bytes(CHAR_TO_CODE[c] for c in sequence.upper()), dtype=np.uint8
        ).copy()
    except KeyError as exc:
        raise PaParError(f"unknown residue {exc.args[0]!r} in sequence") from exc

