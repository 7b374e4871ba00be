"""Compare the work ledgers of two benchmark runs.

Usage::

    python3 perfbench/ledger.py BEFORE.json AFTER.json

Each run of ``perfbench/run.py`` writes a ledger holding a digest of
every simulated statistic and the exact simulated-work counts.  Any
digest or count that differs between the two ledgers is reported as
"simulated work changed" and makes the exit code 1: a change meant only
to speed up the simulator must leave all of them identical.  Metrics are
printed side by side with their after/before ratio.
"""

from __future__ import annotations

import json
import sys
from typing import List


def work_changes(before: dict, after: dict) -> List[str]:
    """Every digest or count present in both ledgers that differs."""
    changes = []
    for section in ("digests", "counts"):
        old, new = before.get(section, {}), after.get(section, {})
        for name in sorted(set(old) & set(new)):
            if old[name] != new[name]:
                changes.append(f"simulated work changed: {section[:-1]} "
                               f"{name}: {old[name]} -> {new[name]}")
    return changes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        before = json.load(fh)
    with open(args[1], encoding="utf-8") as fh:
        after = json.load(fh)
    if (before["workload"], before["seed"]) != (after["workload"],
                                                after["seed"]):
        print("ledgers are of different workloads or seeds", file=sys.stderr)
        return 2
    for name in sorted(set(before["metrics"]) & set(after["metrics"])):
        old = before["metrics"][name]["value"]
        new = after["metrics"][name]["value"]
        ratio = f"{new / old:8.3f}x" if old else "       -"
        print(f"{name:<30} {old:>14.6g} {new:>14.6g} {ratio} "
              f"{after['metrics'][name]['unit']}")
    changes = work_changes(before, after)
    for line in changes:
        print(line)
    if not changes:
        print("simulated work identical")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
