"""Regenerate ``expected.json``: the pinned outputs the benchmark checks.

    python3 perfbench/pin.py [--only replay-year|sweep-fleet]

Run it only when a change is meant to alter simulated outputs (or fixes
the known ``sweep-fleet`` defect), and say so in the change.  It pins
the output digest of every ``replay-year`` input variant and of every
``sweep-fleet`` grid point.  A sweep point that fails with anything but
the known defect is refused, not pinned.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import replay_year
import sweep_fleet


def pin_replay(work) -> dict:
    out = {}
    for v in range(replay_year.VARIANTS):
        out[str(v)] = replay_year.replay_once(v, work)["digest"]
        print(f"replay-year variant {v}: {out[str(v)]}", file=sys.stderr)
    return out


def pin_sweep(work) -> dict:
    out = {}
    result = sweep_fleet.sweep_once(0, work, common.nproc())
    out.update(result["digests"])
    for name, error in result["failures"].items():
        if not error.startswith(sweep_fleet.KNOWN_DEFECT):
            raise SystemExit(f"refusing to pin a new failure: {name}: {error}")
        out[name] = sweep_fleet.KNOWN_DEFECT
    if set(result["failures"]) != set(result["known_defect"]):
        raise SystemExit("failing points differ from the known defect's points")
    print(f"sweep-fleet: {len(result['failures'])} known-defect failures",
          file=sys.stderr)
    return dict(sorted(out.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", choices=("replay-year", "sweep-fleet"))
    args = ap.parse_args()
    common.require_sources()
    path = common.HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    work = common.scratch_dir("pin-")
    try:
        if args.only in (None, "replay-year"):
            expected["replay-year"] = pin_replay(work)
        if args.only in (None, "sweep-fleet"):
            expected["sweep-fleet"] = pin_sweep(work)
    finally:
        common.remove_tree(work)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
