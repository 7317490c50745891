#!/usr/bin/env python3
"""Print one fingerprint per reference report, so two checkouts can be diffed.

Runs every command in ``COMMANDS`` through ``python -m cscx.cli`` against the
``src`` directory of a checkout, drops the report's volatile ``meta`` block
and prints ``<sha256>  <command>`` per report.  Two checkouts give the same
answers on these commands exactly when their outputs are identical:

    python scripts/report_fingerprint.py > after.txt
    python scripts/report_fingerprint.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

A command that prints no JSON report is listed as ``no-report(exit N)`` and
makes the script exit 1, so two checkouts that fail the same way never diff
as identical.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    "cohomology --model affine --n 2 --max-weight 6",
    "cohomology --model affine --n 3 --max-weight 6",
    "cohomology --model torus --n 2 --modes 0,1 --sample-modes 3 --seed 1",
    "rumin verify --n 2 --max-weight 6",
    "rumin verify --n 3 --max-weight 4",
    "rs crosscheck",
    "les --model affine --n 2 --max-weight 5",
    "les --model torus --n 2 --modes 0,1 --sample-modes 3 --seed 1",
    "rs build --model torus --n 2 --modes 0,1 --sample-modes 3",
    "rs build --model torus --n 3 --modes 0 --sample-modes 2",
    "rs build --model affine --max-weight 5",
    "rs build --model affine --n 3 --max-weight 6",
    "lefschetz table --n 3",
    "lefschetz table --n 5",
    "cohomology --model affine --n 4 --max-weight 4",
    "rs crosscheck --n 3 --max-weight 5",
    "les --model affine --n 3 --max-weight 4",
    "rumin verify --n 2 --max-weight 10",
    "claims --n 2",
    "claims --n 3",
    # the lift and the descent round trips at a larger rank
    "claims --n 4",
    "cohomology --model torus --n 2 --modes 0,1,2",
    "cohomology --model torus --n 3 --modes 0,1",
    "rumin verify --n 4 --max-weight 4",
    "rumin verify --n 3 --max-weight 8",
    "cohomology --model affine --n 3 --max-weight 10",
    # the first crosscheck whose top-degree operators are not 0 x k
    "rs crosscheck --n 2 --max-weight 6",
    # the first n=3 crosscheck reaching every degree: degree 6 needs weight 8
    "rs crosscheck --n 3 --max-weight 8",
)


def fingerprint(root: Path, command: str) -> str:
    """sha256 of the command's JSON report without ``meta``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, "-m", "cscx.cli", *command.split()],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    try:
        report = json.loads(run.stdout)
    except json.JSONDecodeError:
        return f"no-report(exit {run.returncode})"
    report.pop("meta", None)
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ runs the commands (default: this one)",
    )
    args = parser.parse_args()
    missing = 0
    for command in COMMANDS:
        digest = fingerprint(args.root.resolve(), command)
        missing += digest.startswith("no-report")
        print(f"{digest}  {command}", flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
