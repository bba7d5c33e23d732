"""Record the golden CLI transcripts replayed by tests/test_golden_cli.py.

    PYTHONPATH=src python3 tests/golden/record_cli.py

Runs every command in COMMANDS through `critnum.cli.main` and writes each
one's argv, environment, stdout, stderr and exit code to
tests/golden/cli.json.  Re-record only when a change to the CLI's output is
intended, and say which commands changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "cli.json"

# argparse wraps its usage lines at the terminal width.
FIXED_ENV = {"COLUMNS": "80"}

FORMATS = ("text", "json", "csv")

COMMANDS: list[dict] = []


def _add(*argv: str, env: dict | None = None) -> None:
    COMMANDS.append({"argv": list(argv), "env": env or {}})


for fmt in FORMATS:
    _add("formula", "--quantity", "chi_h", "--order", "2..12", "--h", "2..3", "--format", fmt)
    _add("formula", "--quantity", "chi_interval", "--order", "2..10", "--s", "1..2", "--format", fmt)
    _add("formula", "--quantity", "chi_hat_h", "--max-order", "8", "--h", "2", "--format", fmt)
    _add("formula", "--quantity", "chi_hat_cyclic", "--order", "2..12", "--s", "1..3", "--format", fmt)
    _add("formula", "--quantity", "chi_hat_2group", "--max-order", "16", "--s", "2..4", "--format", fmt)
    _add("formula", "--quantity", "chi_hat_interval3", "--order", "2..12", "--format", fmt)
    _add("formula", "--quantity", "cr", "--order", "9..14", "--format", fmt)
    _add("formula", "--quantity", "sumfree", "--order", "2..20", "--format", fmt)
    _add("formula", "--quantity", "prop_bound", "--max-order", "12", "--s", "1..3", "--format", fmt)

for fmt in FORMATS:
    _add("verify", "--quantity", "chi_h", "--max-order", "10", "--h", "1..3", "--format", fmt)
    _add("verify", "--quantity", "chi_interval", "--max-order", "10", "--s", "1..3", "--format", fmt)
    _add("verify", "--quantity", "chi_hat_h", "--max-order", "10", "--h", "1..3", "--format", fmt)
    _add("verify", "--quantity", "chi_hat_cyclic", "--max-order", "12", "--s", "1..4", "--format", fmt)
    _add("verify", "--quantity", "chi_hat_2group", "--max-order", "16", "--s", "2..4", "--format", fmt)
    _add("verify", "--quantity", "chi_hat_interval3", "--max-order", "12", "--format", fmt)
    _add("verify", "--quantity", "cr", "--order", "9..13", "--format", fmt)
    _add("verify", "--quantity", "prop_bound", "--max-order", "10", "--s", "1..3", "--format", fmt)
    _add("sumfree", "--order", "2..14", "--format", fmt)

# Explicit groups: kept even outside a quantity's sweep filter.
_add("formula", "--quantity", "chi_h", "--group", "2,4", "--group", "3,3", "--group", "9", "--h", "1..3")
_add("formula", "--quantity", "chi_hat_interval3", "--group", "3")
_add("formula", "--quantity", "cr", "--group", "11", "--group", "2,2,4")
_add("verify", "--quantity", "chi_hat_interval3", "--group", "4", "--group", "6")
_add("verify", "--quantity", "chi_h", "--group", "16", "--h", "2", "--workers", "2", "--format", "csv")
_add("verify", "--quantity", "chi_h", "--orders", "17..18", "--h", "1", "--budget-ack")
_add("verify", "--quantity", "prop_bound", "--group", "2,2,2,2", "--s", "2", "--format", "json")

# Error exits.
_add("formula", "--quantity", "chi_h", "--group", "0", "--h", "2")
_add("formula", "--quantity", "chi_h", "--order", "5", "--h", "0")
_add("formula", "--quantity", "chi_interval", "--order", "5", "--s", "0")
_add("formula", "--quantity", "chi_hat_h", "--order", "5", "--h", "0")
_add("formula", "--quantity", "chi_hat_cyclic", "--order", "5", "--s", "0")
_add("formula", "--quantity", "chi_hat_2group", "--group", "2,2", "--s", "1")
_add("formula", "--quantity", "chi_hat_2group", "--group", "4", "--s", "2")
_add("formula", "--quantity", "chi_hat_interval3", "--group", "2,2")
_add("formula", "--quantity", "cr", "--group", "8")
_add("formula", "--quantity", "prop_bound", "--group", "6", "--s", "0")
_add("verify", "--quantity", "chi_h", "--order", "5")
_add("verify", "--quantity", "chi_interval", "--order", "5")
_add("formula", "--quantity", "chi_h", "--order", "5", "--h", "2", "--s", "1")
_add("formula", "--quantity", "chi_interval", "--order", "5", "--s", "2", "--h", "1")
_add("formula", "--quantity", "cr", "--order", "10..12", "--h", "2")
_add("formula", "--quantity", "chi_h", "--h", "2")
_add("formula", "--quantity", "chi_h", "--order", "5..3", "--h", "2")
_add("formula", "--quantity", "chi_h", "--order", "a..b", "--h", "2")
_add("formula", "--quantity", "chi_h", "--order", "x", "--h", "2")
_add("formula", "--quantity", "chi_h", "--max-order", "1", "--h", "2")
_add("formula", "--quantity", "chi_h", "--order", "5", "--h", "two")
_add("formula", "--quantity", "nonsense", "--order", "5")
_add("verify", "--quantity", "chi_hat_cyclic", "--group", "2,2", "--s", "2")
_add("verify", "--quantity", "nonsense", "--order", "5")
_add("verify", "--order", "5")
_add("sumfree", "--order", "5", "--format", "xml")
_add("witness", "--group", "10", "--h", "x")
_add("bound", "--group", "10")
_add("verify", "--quantity", "chi_h", "--h", "2", "--definitely-not-a-flag")
_add("verify", "--quantity", "chi_h", "--orders", "17..18", "--h", "1")
_add("verify", "--quantity", "chi_h", "--group", "6", "--h", "2", "--workers", "0")
_add("verify", "--quantity", "chi_h", "--group", "12", "--h", "2", env={"CRITNUM_MAX_N": "10"})
_add("verify", "--quantity", "chi_h", "--group", "6", "--h", "2", env={"CRITNUM_MAX_N": "not-a-number"})
_add("sumfree", "--group", "2,2")
_add("sumfree", "--group", "6", "--workers", "0")

_add("witness", "--group", "2,4", "--h", "3")
_add("witness", "--group", "2,4", "--h", "3", "--format", "text")
_add("witness", "--group", "10", "--s", "2")
_add("witness", "--group", "3,3", "--s", "2", "--format", "text")
_add("witness", "--group", "10", "--h", "2", "--s", "2")
_add("witness", "--group", "10")
_add("witness", "--group", "10", "--h", "0")
_add("bound", "--group", "2,2,2,2", "--s", "2")
_add("bound", "--group", "12", "--s", "3", "--format", "text")
_add("bound", "--group", "3", "--s", "2")
_add("bound", "--group", "6", "--s", "0")
_add()


def run_command(argv: list[str], env: dict) -> dict:
    """Run one command through `critnum.cli.main` under a fixed environment."""
    import critnum.cli

    saved = {key: os.environ.get(key) for key in [*FIXED_ENV, "CRITNUM_MAX_N"]}
    os.environ.pop("CRITNUM_MAX_N", None)
    os.environ.update(FIXED_ENV)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = critnum.cli.main(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {"argv": argv, "env": env, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def main() -> int:
    records = [run_command(c["argv"], c["env"]) for c in COMMANDS]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(records)} commands in {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
