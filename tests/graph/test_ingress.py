"""The shipped configs/ files parse and drive the CLI end to end."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)


class TestConfigsDirectory:
    """The shipped configs/ files drive the CLI end to end."""

    def test_cli_with_shipped_configs(self, tmp_path):
        from repro.cli import main
        from repro.formats import BLAST_INDEX_SCHEMA, write_binary

        index = generate_index("env_nr", num_sequences=60, seed=6)
        db_path = tmp_path / "db.index"
        write_binary(db_path, index, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
        rc = main([
            "run",
            "--input-config", "configs/blast_db.xml",
            "--workflow", "configs/blast_partition.xml",
            "--arg", f"input_path={db_path}",
            "--arg", f"output_path={tmp_path / 'out'}",
            "--arg", "num_partitions=4",
        ])
        assert rc == 0
        assert len(list((tmp_path / "out").iterdir())) == 4

    def test_shipped_configs_parse(self):
        from repro.config import load_input_config, load_workflow_config

        assert load_input_config("configs/blast_db.xml").id == "blast_db"
        assert load_input_config("configs/graph_edge.xml").id == "graph_edge"
        assert load_workflow_config("configs/blast_partition.xml").id == "blast_partition"
        assert load_workflow_config("configs/hybrid_cut.xml").id == "hybrid_cut"
