"""Golden CLI transcripts: every recorded command replays byte for byte.

tests/golden/cli.json holds a fixed command set covering every quantity of
`formula` and `verify` in all three formats, `sumfree`, `witness`, `bound`
and every error exit, with each command's stdout, stderr and exit code.
Refactors must leave all of it unchanged; re-record with
tests/golden/record_cli.py only when an output change is intended.
"""

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from record_cli import GOLDEN, run_command  # noqa: E402

RECORDS = json.loads(GOLDEN.read_text())


def test_cli_output_matches_golden():
    differing = []
    for record in RECORDS:
        got = run_command(record["argv"], record["env"])
        for key in ("exit", "stdout", "stderr"):
            if got[key] != record[key]:
                differing.append(f"critnum {' '.join(record['argv'])}: {key} differs")
    assert len(RECORDS) >= 100
    assert not differing, "\n".join(differing)
