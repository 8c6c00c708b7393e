"""Compare two benchmark records written by bench/run.py.

    python3 bench/compare.py OLD.json NEW.json

Refuses (exit 2) when the records' environment stamps differ in Python
version or processor count, or when they are of different workloads or
trace modes.  Otherwise prints each metric's old and new value and the
change as a share of the old value, and marks end-to-end metrics that got
worse by more than their bound in BENCHMARK.json.  One record per side is a
single run: a claim needs the repeated runs the benchmark's rules ask for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def comparable(old: dict, new: dict) -> str | None:
    """None when the records may be compared, else why not."""
    for key in ("python", "nproc"):
        if old["stamp"][key] != new["stamp"][key]:
            return f"stamps differ in {key}: {old['stamp'][key]} vs {new['stamp'][key]}"
    for key in ("workload", "trace"):
        if old[key] != new[key]:
            return f"records differ in {key}: {old[key]} vs {new[key]}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    reason = comparable(old, new)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{old['workload']}: old seed {old['seed']} commit {old['stamp']['commit']}, "
          f"new seed {new['seed']} commit {new['stamp']['commit']}")
    for name, before in old["metrics"].items():
        after = new["metrics"].get(name)
        if after is None:
            continue
        change = (after - before) / before if before else 0.0
        flag = "  WORSE THAN BOUND" if name in bounds and change > bounds[name] else ""
        print(f"  {name:<52} {before:>12.6g} -> {after:<12.6g} {change:+.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
