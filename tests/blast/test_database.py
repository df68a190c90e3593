"""Synthetic database generation and the four-tuple index."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PaParError
from repro.formats import BLAST_INDEX_SCHEMA, read_binary, write_binary

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import (
        INDEX_HEADER,
        build_index,
        extract_partition,
        generate_database,
        recalculate_pointers,
    )
    from apps.blast.database import ENV_NR_PROFILE, NR_PROFILE
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def db():
    return generate_database("env_nr", num_sequences=500, seed=1)


class TestGeneration:
    def test_extents_consistent(self, db):
        assert db.num_sequences == 500
        assert db.seq_start[0] == 0
        ends = db.seq_start + db.seq_size
        np.testing.assert_array_equal(db.seq_start[1:], ends[:-1])
        assert ends[-1] == len(db.residues)

    def test_description_extents_consistent(self, db):
        ends = db.desc_start + db.desc_size
        np.testing.assert_array_equal(db.desc_start[1:], ends[:-1])
        assert ends[-1] == len(db.descriptions)
        assert db.description(0).startswith(">env_nr|")

    def test_residue_codes_valid(self, db):
        assert db.residues.max() < 20  # only the 20 standard amino acids

    def test_deterministic(self):
        a = generate_database("env_nr", num_sequences=50, seed=9)
        b = generate_database("env_nr", num_sequences=50, seed=9)
        np.testing.assert_array_equal(a.residues, b.residues)
        np.testing.assert_array_equal(a.seq_size, b.seq_size)

    def test_env_nr_mostly_short(self, db):
        """Paper: 'most of the sequences ... are less than 100 letters'."""
        assert (db.seq_size < 100).mean() > 0.5

    def test_nr_heavier_tail_than_env_nr(self):
        env = generate_database("env_nr", num_sequences=3000, seed=2)
        nr = generate_database("nr", num_sequences=3000, seed=2)
        assert nr.seq_size.mean() > env.seq_size.mean()
        assert np.percentile(nr.seq_size, 99) > np.percentile(env.seq_size, 99)

    def test_length_clustering_correlates_neighbours(self):
        clustered = generate_database("env_nr", num_sequences=2000, seed=3, length_clustering=0.95)
        shuffled = generate_database("env_nr", num_sequences=2000, seed=3, length_clustering=0.0)

        def neighbour_corr(lengths):
            return np.corrcoef(lengths[:-1], lengths[1:])[0, 1]

        assert neighbour_corr(clustered.seq_size) > 0.5
        assert abs(neighbour_corr(shuffled.seq_size)) < 0.2

    def test_invalid_args(self):
        with pytest.raises(PaParError):
            generate_database("swissprot")
        with pytest.raises(PaParError):
            generate_database("nr", num_sequences=0)
        with pytest.raises(PaParError):
            generate_database("nr", length_clustering=2.0)

    def test_profiles_bounds(self):
        for prof in (ENV_NR_PROFILE, NR_PROFILE):
            rng = np.random.default_rng(0)
            lengths = prof.sample(1000, rng)
            assert lengths.min() >= prof.min_len
            assert lengths.max() <= prof.max_len


class TestIndex:
    def test_index_matches_db(self, db):
        index = build_index(db)
        assert index.dtype == BLAST_INDEX_SCHEMA.dtype
        np.testing.assert_array_equal(index["seq_size"], db.seq_size)
        np.testing.assert_array_equal(index["seq_start"], db.seq_start)

    def test_write_read_roundtrip(self, db, tmp_path):
        path = tmp_path / "db.index"
        write_binary(path, build_index(db), BLAST_INDEX_SCHEMA, header=INDEX_HEADER)
        back = read_binary(path, BLAST_INDEX_SCHEMA)
        np.testing.assert_array_equal(back["seq_size"], db.seq_size)

    def test_recalculate_pointers(self, db):
        index = build_index(db)
        part = index[::3].copy()  # every third sequence
        rebased = recalculate_pointers(part)
        assert rebased["seq_start"][0] == 0
        np.testing.assert_array_equal(
            rebased["seq_start"][1:],
            np.cumsum(rebased["seq_size"])[:-1],
        )
        np.testing.assert_array_equal(rebased["seq_size"], part["seq_size"])

    def test_recalculate_rejects_wrong_dtype(self):
        with pytest.raises(PaParError):
            recalculate_pointers(np.zeros(3, dtype=np.int64))

    def test_extract_partition_preserves_sequences(self, db):
        index = build_index(db)
        part_idx = index[[5, 17, 200]].copy()
        part_db = extract_partition(db, part_idx)
        assert part_db.num_sequences == 3
        for out_i, src_i in enumerate([5, 17, 200]):
            np.testing.assert_array_equal(part_db.sequence(out_i), db.sequence(src_i))
            assert part_db.description(out_i) == db.description(src_i)
