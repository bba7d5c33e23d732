"""Record the expected `critnum verify` output of the verify_sweep workload.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs every quantity with `--workers 1` and writes perfbench/expected/.
The benchmark runs the same sweep with two workers and requires the output
to be byte-identical, because output must not depend on the worker count.
Re-record only when a change to the CLI's output is intended.
"""

import contextlib
import io
import sys

import critnum.cli
import workloads


def main() -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for quantity in workloads.VERIFY_QUANTITIES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = critnum.cli.main(workloads.verify_argv(quantity, 1))
        if code != 0:
            print(f"verify {quantity} exited {code}; nothing recorded", file=sys.stderr)
            return 1
        (workloads.EXPECTED_DIR / f"verify_{quantity}.txt").write_text(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
