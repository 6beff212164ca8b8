"""Pin the output digests of the workloads for a range of seeds.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py --seeds 0-23 [--workload paper_fig8 ...]

Runs one full repetition per (workload, seed) and stores its output
units in ``perfbench/pinned.json``, which ``run.py`` checks every
repetition against.  Rerun it only for a change that is meant to
alter the program's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import PINNED, ROOT, SCRATCH, WORKLOADS, Repetitions


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for workload in args.workload or WORKLOADS:
        for seed in args.seeds:
            record = Repetitions(workload, seed).run(timeout=600)
            if record is None:
                return 1
            pinned.setdefault(workload, {})[str(seed)] = record["units"]
            PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                              + "\n")
            print(f"{workload} seed {seed}: {len(record['units'])} units",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
