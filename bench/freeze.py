"""Regenerate reference.json, the frozen deterministic fields of every command
any workload can run.

    python3 bench/freeze.py

Run it only for a change that is meant to move these numbers, and name each
moved value in the change's notes: the benchmark's correctness gate compares
against this file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    cli = workloads.load_cli(Path(__file__).resolve().parent.parent)
    commands = workloads.reference_commands()
    _, results = workloads.run_pass(cli, commands)
    reference = {}
    for cmd in commands:
        code, out, err = results[cmd.label]
        if code != cmd.expect:
            print(f"{cmd.label}: exit {code}, expected {cmd.expect}: {err}", file=sys.stderr)
            return 1
        reference[cmd.label] = workloads.frozen_view(cmd.argv, json.loads(out))
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(reference)} commands into {workloads.REFERENCE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
