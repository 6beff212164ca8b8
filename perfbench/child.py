"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with a cleaned environment (no ``REPRO_*``
variables, BLAS and OpenMP capped at one thread, ``src`` on the path).
Prints one JSON object on its last stdout line:

* ``ready`` -- ``time.monotonic()`` when the first step starts, so the
  parent can take set-up time from its own spawn timestamp (both
  read the system-wide monotonic clock), and ``setup_tick``, the
  calibration tick's time right after it (``calibrate.py``); with
  ``--setup-only`` the process stops there and prints nothing else;
* the time of each step, CPU seconds over all steps and peak RSS,
  calibration ticks taken out, and ``tick``, the ticks' mean time
  during the steps (an untraced repetition only: a traced one runs no
  ticks, so they do not land in its spans);
* the output units, in-process check failures and printed figures;
* with ``--trace-out``: per-layer self times, calls and items, and the
  Chrome trace written to that path.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from pathlib import Path

from calibrate import Calibrator
from workloads import WORKLOADS, SetupDone, Steps


def layer_report(tracer, figures) -> dict:
    """Per-layer metrics of one traced repetition."""
    self_s = dict(tracer.self_s)
    calls, items = tracer.calls, tracer.items
    get_calls = calls["engine.cache.get"]
    detailed_s = self_s.get("uarch.detailed", 0.0)
    report = {
        "trace.wall_s": tracer.wall_s,
        "engine.cache.hit_ratio": (items["engine.cache.get.hits"] / get_calls
                                   if get_calls else 0.0),
        "engine.cache.disk_mb": figures.get("disk_mb", 0.0),
        "uarch.detailed.kips": (items["uarch.detailed.kinst"] / detailed_s
                                if detailed_s else 0.0),
    }
    for layer, seconds in self_s.items():
        report[f"{layer}.self_s"] = seconds
    for layer, n in calls.items():
        report[f"{layer}.calls"] = n
    for name, n in items.items():
        report[name] = n
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "settle"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first timed step would start")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    steps = Steps(tracer.span if tracer else None,
                  setup_only=args.setup_only,
                  calibrator=None if tracer else Calibrator())
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.size,
                                           args.scratch, steps)
    except SetupDone:
        print(json.dumps({"ready": steps.ready,
                          "setup_tick": steps.setup_tick}))
        return
    record = {
        "ready": steps.ready,
        "setup_tick": steps.setup_tick,
        "steps": steps.seconds,
        "cpu_s": steps.cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": outcome.units,
        "failures": outcome.failures,
        "figures": outcome.figures,
    }
    if tracer is None:
        ticks = steps.calibrator.ticks
        record["tick"] = (statistics.fmean(ticks) if ticks
                          else steps.setup_tick)
    else:
        record["layers"] = layer_report(tracer, outcome.figures)
        tracer.write_chrome_trace(args.trace_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
