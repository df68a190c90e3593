"""Synthetic protein sequence databases.

The paper evaluates on *env_nr* (~6M sequences, 1.7 GB) and *nr*
(~85M sequences, 53 GB); "most of the sequences in two databases are less
than 100 letters".  Neither database ships with this repo, so we generate
synthetic databases whose **length distributions** match the published
description — the property both the partitioner quality metrics and the
search skew depend on (see DESIGN.md, substitutions table):

* ``env_nr`` profile — log-normal lengths, median ~65, long tail to ~2k;
* ``nr`` profile — heavier tail (median ~90, tail to ~10k), reproducing the
  larger skew the paper observes on nr.

Real databases are also *ordered non-randomly* (accession order clusters
related sequences, so neighbouring sequences have correlated lengths).  That
ordering is exactly why the default contiguous ("block") partitioning skews:
a contiguous chunk inherits a biased length profile.  ``length_clustering``
reproduces it: 0.0 shuffles lengths i.i.d., 1.0 sorts fully; the default 0.7
coarsely clusters lengths like a family-ordered database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import PaParError

#: amino-acid background frequencies (Robinson & Robinson order of ALPHABET)
_AA_FREQS = np.array(
    [
        0.078, 0.051, 0.045, 0.054, 0.019, 0.043, 0.063, 0.074, 0.022, 0.051,
        0.091, 0.057, 0.022, 0.039, 0.052, 0.071, 0.058, 0.013, 0.032, 0.065,
    ]
)
_AA_FREQS = _AA_FREQS / _AA_FREQS.sum()


@dataclass
class LengthProfile:
    """Log-normal sequence length model for one database."""

    name: str
    mu: float
    sigma: float
    min_len: int
    max_len: int

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lengths = rng.lognormal(self.mu, self.sigma, size=n)
        return np.clip(lengths.astype(np.int64), self.min_len, self.max_len)


#: env_nr-like: most sequences < 100 letters, tail to ~2k
ENV_NR_PROFILE = LengthProfile(name="env_nr", mu=4.2, sigma=0.55, min_len=11, max_len=2000)

#: nr-like: heavier tail (the paper reports larger speedups on nr)
NR_PROFILE = LengthProfile(name="nr", mu=4.5, sigma=0.85, min_len=11, max_len=10000)

PROFILES = {"env_nr": ENV_NR_PROFILE, "nr": NR_PROFILE}


@dataclass
class SequenceDatabase:
    """A protein database: concatenated encoded residues + per-sequence extents.

    Mirrors the muBLASTP on-disk layout the four-tuple index points into:
    one encoded-residue blob, one description blob, and per-sequence
    ``(start, size)`` extents into each.
    """

    name: str
    residues: np.ndarray  # uint8 codes, all sequences concatenated
    seq_start: np.ndarray  # int64 offsets into residues
    seq_size: np.ndarray  # int64 lengths
    descriptions: bytes  # concatenated description text
    desc_start: np.ndarray
    desc_size: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.seq_start)
        if not (len(self.seq_size) == len(self.desc_start) == len(self.desc_size) == n):
            raise PaParError("database extent arrays must have equal length")

    @property
    def num_sequences(self) -> int:
        return len(self.seq_start)

    @property
    def total_residues(self) -> int:
        return int(self.seq_size.sum())

    def sequence(self, i: int) -> np.ndarray:
        """Encoded residues of sequence ``i``."""
        s = int(self.seq_start[i])
        return self.residues[s : s + int(self.seq_size[i])]

    def description(self, i: int) -> str:
        s = int(self.desc_start[i])
        return self.descriptions[s : s + int(self.desc_size[i])].decode("ascii")

    def lengths(self) -> np.ndarray:
        return self.seq_size.copy()


def generate_database(
    profile: str = "env_nr",
    num_sequences: int = 10_000,
    seed: int = 0,
    length_clustering: float = 0.7,
    name: Optional[str] = None,
) -> SequenceDatabase:
    """Generate a synthetic database with a named length profile.

    ``length_clustering`` in [0, 1] controls how strongly neighbouring
    sequences have similar lengths (see module docstring).
    """
    if profile not in PROFILES:
        raise PaParError(f"unknown database profile {profile!r}; known: {sorted(PROFILES)}")
    if not (0.0 <= length_clustering <= 1.0):
        raise PaParError(f"length_clustering must be in [0, 1], got {length_clustering!r}")
    if num_sequences < 1:
        raise PaParError(f"num_sequences must be >= 1, got {num_sequences!r}")
    rng = np.random.default_rng(seed)
    prof = PROFILES[profile]
    lengths = prof.sample(num_sequences, rng)

    # order lengths: blend a fully sorted arrangement with a shuffle by
    # sorting "rank + noise" — larger clustering => less noise
    ranks = np.argsort(np.argsort(lengths))
    noise = rng.normal(0, 1e-9 + (1.0 - length_clustering) * num_sequences, num_sequences)
    order = np.argsort(ranks + noise, kind="stable")
    lengths = lengths[order]

    total = int(lengths.sum())
    residues = rng.choice(
        np.arange(20, dtype=np.uint8), size=total, p=_AA_FREQS
    )
    seq_start = np.concatenate(([0], np.cumsum(lengths)))[:-1]

    desc_parts = []
    desc_start = np.empty(num_sequences, dtype=np.int64)
    desc_size = np.empty(num_sequences, dtype=np.int64)
    pos = 0
    db_name = name or prof.name
    for i in range(num_sequences):
        d = f">{db_name}|{seed:04d}{i:08d}| synthetic protein len={int(lengths[i])}"
        b = d.encode("ascii")
        desc_parts.append(b)
        desc_start[i] = pos
        desc_size[i] = len(b)
        pos += len(b)

    return SequenceDatabase(
        name=db_name,
        residues=residues,
        seq_start=seq_start.astype(np.int64),
        seq_size=lengths.astype(np.int64),
        descriptions=b"".join(desc_parts),
        desc_start=desc_start,
        desc_size=desc_size,
    )

