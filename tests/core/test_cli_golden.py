"""The CLI's help and usage errors, byte for byte.

``cli_golden.json`` holds what ``python -m repro`` printed for ``--help``,
every sub-command's ``--help``, no command, an unknown command and five
usage errors when all six commands' flags were defined in one module,
captured at 80 columns under Python 3.11 (argparse's layout changes
between Python versions).  Each command's flags now load by name with its
module; these cases must still print the same bytes and exit codes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse's help layout is Python 3.11's"
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_cli_prints_the_golden_bytes(name, monkeypatch, capsys):
    case = GOLDEN[name]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exited.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_help_and_usage_errors_load_only_the_command_they_name():
    src = Path(__file__).resolve().parents[2] / "src"

    probe = ("import sys\nfrom repro.cli import main\n"
             "for argv in (['--help'], [], ['partition'], ['plan', '--workflow', 'w', '--x']):\n"
             "    try:\n        main(argv)\n    except SystemExit:\n        pass\n"
             "print(sorted(m for m in sys.modules if m.startswith('repro.commands.')))\n")
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    # a usage error of plan's own parser loads plan's module, and only it
    assert got.stdout.splitlines()[-1] == "['repro.commands.plan']"
