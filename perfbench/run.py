"""The repository's benchmark: one workload, repeated, checked, reported.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_fig8 --seed 0 --seconds 18 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists and its
traffic dimensions): ``paper_fig8``, ``active_dse``,
``detailed_sweep``, ``disk_sweep``.

How a run measures
------------------
* A small *settle* repetition runs first, untimed, so first-touch file
  caches fill and byte-code is written before anything is timed.
* Every measured repetition runs in a fresh process (``child.py``), so
  no memo, LRU cache or result cache carries over between repetitions.
  Its environment has every ``REPRO_*`` variable removed (the workloads
  build their engines explicitly) and BLAS/OpenMP capped at one
  thread: OpenBLAS's default second thread spins against the other
  tenants of a small machine and makes CPU time and wall time noisy.
* ``SETUP_RUNS`` processes then only set up and exit.  ``setup_s`` is
  the median set-up time of those and of the measured repetitions:
  process start, imports, engine and input construction, up to the
  first timed step.
* Every host time reported is adjusted for the machine's speed at the
  moment it was measured (``calibrate.py``): a fixed kernel's ticks
  run during the timed steps (and in a burst right after set-up), their
  own time is taken out, and the time is scaled by the reference tick
  time over the ticks' mean.  The raw times are printed beside them.
* Measured repetitions follow until ``--seconds`` have passed, at
  least ``MIN_REPS`` of them (see ``OVERRUN`` for the exception);
  every other end-to-end metric is the median over them.
* Every repetition's output units are compared with the digests pinned
  in ``perfbench/pinned.json`` for this seed (or, for a seed not
  pinned there, with the first repetition), and in-process checks
  (warm-pass bytes equal to cold-pass bytes) count too.
  ``attempted``/``failed`` count units over all repetitions.

End-to-end metrics (``--trace 0``), the same on every workload
----------------------------------------------------------------
``setup_s``      median set-up time, speed-adjusted (s)
``wall_s``       median wall time of the timed steps, speed-adjusted (s)
``cpu_s``        median user + system CPU time of the timed steps,
                 speed-adjusted (s)
``peak_rss_mb``  median peak resident set of a repetition (MiB)
``ok_rate``      output units that passed / units checked

An end-to-end metric has to exist on every workload and must never
read 0, so the error rate is reported as its complement ``ok_rate``,
and results that exist on one workload only are printed, not
reported: Figure 8's overall median MSE % per domain, ``active_dse``'s
simulations to the LHS target, ``detailed_sweep``'s simulated
kilo-instructions per second and ``disk_sweep``'s cold and warm pass
times.  The deterministic ones are pinned exactly by the output
digests.  Without the speed adjustment these times are too noisy to
bound: on a shared 2-vCPU virtual machine the same repetition ran
anywhere from 1x to 2x its quiet time within an hour, with no steal
time visible inside the machine, and runs of the same code a few
minutes apart differed by up to 25 %.

With ``--trace 1`` the run alternates untraced and traced repetitions.
The traced ones wrap every layer's public entry points
(``tracing.py``) and report per-layer self time, calls and items (raw
host time: a traced repetition runs no calibration ticks); the
Chrome trace of the last traced repetition and a per-layer table are
written under ``.perfbench/`` in the checkout.  ``trace.overhead_frac``
is the traced wall time over the untraced one (raw), minus one.
``calib.tick_ms`` and ``calib.raw_wall_s`` are the untraced
repetitions' median tick time and raw wall time, so the adjustment can
be checked.

The last stdout line is the JSON result.  Without the program (no
``src/repro`` in the current directory) the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import adjust

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench"
PINNED = BENCH_DIR / "pinned.json"
WORKLOADS = ("paper_fig8", "active_dse", "detailed_sweep", "disk_sweep")

#: Set-up-only processes per run; with the measured repetitions' own
#: set-ups they give the median ``setup_s``.
SETUP_RUNS = 3
#: Measured repetitions per run, at least; more follow until
#: ``--seconds`` have passed.  A fixed floor, rather than one that
#: depends on how fast the first repetition was, keeps a slow first
#: repetition from standing alone in its run more often than a fast one.
MIN_REPS = 2
#: On a machine so slow that, at the pace of the last repetition,
#: another would end later than this multiple of ``--seconds``, the run
#: stops after one, to stay within its time budget.
OVERRUN = 2.0
#: A repetition still running this many seconds into the run is killed
#: and counted failed, so the run ends well within three minutes.
RUN_LIMIT_S = 170
#: No repetition starts later than this many seconds into the run.
LAST_START_S = 110

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "ok_rate": "frac",
}

PER_LAYER = {
    "core.tree_fit.calls": "count", "core.tree_fit.self_s": "s",
    "core.rbf_fit.calls": "count", "core.rbf_fit.self_s": "s",
    "core.predictor_fit.calls": "count", "core.predictor_fit.self_s": "s",
    "core.predict.calls": "count", "core.predict.rows": "count",
    "core.predict.self_s": "s",
    "dse.encode.calls": "count", "dse.encode.self_s": "s",
    "dse.candidates.self_s": "s",
    "dse.search.rounds": "count", "dse.search.self_s": "s",
    "uarch.detailed.jobs": "count", "uarch.detailed.self_s": "s",
    "uarch.detailed.kips": "kinst/s",
    "uarch.interval.calls": "count", "uarch.interval.configs": "count",
    "uarch.interval.self_s": "s",
    "workloads.synthesize.calls": "count", "workloads.synthesize.self_s": "s",
    "engine.run.jobs": "count", "engine.run.self_s": "s",
    "engine.cache.get.calls": "count", "engine.cache.get.hits": "count",
    "engine.cache.get.self_s": "s",
    "engine.cache.put.calls": "count", "engine.cache.put.self_s": "s",
    "engine.cache.hit_ratio": "frac", "engine.cache.disk_mb": "MB",
    "experiments.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_frac": "frac",
    "calib.tick_ms": "ms", "calib.raw_wall_s": "s",
}

#: Figure 8 overall medians published in the paper (MSE %).  The
#: reproduction is checked only against these, never against hardware.
PAPER_FIG8 = {"cpi_mse_pct": 2.3, "power_mse_pct": 2.6}


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH_DIR), str(ROOT / "src")])
    # Byte-code goes under the scratch directory, written by the settle
    # repetition and read by every measured one.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    return env


class Repetitions:
    """Runs ``child.py`` repetitions of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.count = 0

    def run(self, timeout: float, size: str = "full", trace: bool = False,
            setup_only: bool = False) -> Optional[dict]:
        """One repetition; ``None`` if it crashed or timed out."""
        self.count += 1
        scratch = SCRATCH / f"rep-{os.getpid()}-{self.count}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", size, "--scratch", str(scratch)]
        trace_path = SCRATCH / f"trace-{self.workload}-seed{self.seed}.json"
        if trace:
            cmd += ["--trace-out", str(trace_path)]
        if setup_only:
            cmd.append("--setup-only")
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"repetition {self.count} timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            print(f"repetition {self.count} failed "
                  f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return None
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["raw_setup_s"] = record["ready"] - spawn
        if record["setup_tick"] is not None:
            record["setup_s"] = adjust(record["raw_setup_s"],
                                       record["setup_tick"])
        if setup_only:
            return record
        record["raw_wall_s"] = sum(record["steps"].values())
        if not trace:
            record["raw_cpu_s"] = record["cpu_s"]
            record["wall_s"] = adjust(record["raw_wall_s"], record["tick"])
            record["cpu_s"] = adjust(record["raw_cpu_s"], record["tick"])
        record["traced"] = trace
        if trace:
            record["trace_path"] = str(trace_path)
        return record


class Checker:
    """Counts output units checked and failed over all repetitions."""

    def __init__(self, workload: str, seed: int):
        pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
        self.reference: Optional[Dict[str, str]] = (
            pinned.get(workload, {}).get(str(seed)))
        self.source = "pinned" if self.reference else "first repetition"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def crashed(self, units: int = 1) -> None:
        self.attempted += units
        self.failed += units
        self.problems.append("a repetition crashed")

    def check(self, record: Optional[dict]) -> None:
        if record is None:
            self.crashed(len(self.reference) if self.reference else 1)
            return
        units, failures = record["units"], record["failures"]
        if self.reference is None:
            self.reference = dict(units)
        for unit in sorted(set(self.reference) | set(units)):
            self.attempted += 1
            if unit in failures:
                self.failed += 1
                self.problems.append(f"{unit}: {failures[unit]}")
            elif units.get(unit) != self.reference.get(unit):
                self.failed += 1
                self.problems.append(
                    f"{unit}: digest {units.get(unit)} != "
                    f"{self.source} {self.reference.get(unit)}")


def median(records: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def print_table(records: List[dict]) -> None:
    """One row per repetition; raw host times, then the adjusted ones
    (blank for a traced repetition, which runs no ticks)."""
    keys = ["raw_setup_s", "raw_wall_s", "cpu_s", "peak_rss_mb"]
    steps = list(records[0]["steps"])
    adjusted = ["tick", "setup_s", "wall_s"]
    print("rep  traced  " + "  ".join(f"{k:>13}"
                                      for k in keys + steps + adjusted))
    for i, r in enumerate(records, 1):
        if not r["traced"]:
            r = dict(r, cpu_s=r["raw_cpu_s"], tick=1e3 * r["tick"])
        values = ([r[k] for k in keys] + [r["steps"][k] for k in steps]
                  + [r.get(k) for k in adjusted])
        print(f"{i:>3}  {str(r['traced']):>6}  " + "  ".join(
            f"{v:>13.4f}" if v is not None else f"{'':>13}"
            for v in values))


def print_figures(workload: str, figures: Dict[str, float]) -> None:
    for name, value in figures.items():
        line = f"{workload}: {name} = {value:.6g}"
        if name in PAPER_FIG8:
            line += (f"  (paper Figure 8 overall median {PAPER_FIG8[name]}%;"
                     f" held-out test configurations; checked against the"
                     f" published medians only, not against hardware)")
        print(line)


def layer_table(workload: str, layers: Dict[str, float]) -> str:
    wall = layers["trace.wall_s"]
    rows = sorted(((k[:-len(".self_s")], v) for k, v in layers.items()
                   if k.endswith(".self_s")), key=lambda kv: -kv[1])
    lines = [f"per-layer self time, {workload} (traced wall {wall:.4f} s)"]
    for layer, seconds in rows:
        lines.append(f"  {layer:<22} {seconds:>9.4f} s  "
                     f"{100 * seconds / wall:5.1f} %")
    total = sum(s for _, s in rows)
    lines.append(f"  {'sum':<22} {total:>9.4f} s  {100 * total / wall:5.1f} %")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    launched = time.monotonic()
    SCRATCH.mkdir(exist_ok=True)
    reps = Repetitions(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)

    def time_left() -> float:
        return launched + RUN_LIMIT_S - time.monotonic()

    if reps.run(time_left(), size="settle") is None:
        checker.crashed()
    setups: List[float] = []
    raw_setups: List[float] = []
    for _ in range(SETUP_RUNS):
        record = reps.run(time_left(), setup_only=True)
        if record is None:
            checker.crashed()
        else:
            setups.append(record["setup_s"])
            raw_setups.append(record["raw_setup_s"])

    start = time.monotonic()
    records: List[dict] = []
    last = 0.0
    while time.monotonic() - launched < LAST_START_S:
        elapsed = time.monotonic() - start
        # Trace runs alternate untraced and traced repetitions and stop
        # only after a traced one.
        if not (args.trace and len(records) % 2 == 1):
            if len(records) >= MIN_REPS and elapsed >= args.seconds:
                break
            if records and elapsed + last > OVERRUN * args.seconds:
                break
        began = time.monotonic()
        record = reps.run(time_left(), trace=bool(args.trace)
                          and len(records) % 2 == 1)
        last = time.monotonic() - began
        checker.check(record)
        if record is not None:
            records.append(record)
        elif not records:
            break

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not plain or (args.trace and not traced):
        print(f"{args.workload}: no repetition completed", file=sys.stderr)
        for problem in checker.problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {len(records)} repetitions, "
          f"outputs checked against the {checker.source}")
    print_table(records)
    setups += [r["setup_s"] for r in plain]
    raw_setups += [r["raw_setup_s"] for r in plain]
    print(f"set-up times (raw): {' '.join(f'{s:.4f}' for s in raw_setups)}")
    print(f"set-up times (adjusted): {' '.join(f'{s:.4f}' for s in setups)}")
    figures = dict(plain[0]["figures"])
    if "measured_kinst" in figures:
        # Per adjusted second.
        figures["sim_kips"] = figures["measured_kinst"] / median(plain, "wall_s")
    print_figures(args.workload, figures)
    for problem in checker.problems[:20]:
        print(f"CHECK FAILED {problem}")

    if args.trace:
        # Self times are raw host time, like trace.wall_s.
        pick = sorted(traced, key=lambda r: r["layers"]["trace.wall_s"])
        layers = dict(pick[(len(pick) - 1) // 2]["layers"])
        layers["trace.overhead_frac"] = (
            statistics.median(r["layers"]["trace.wall_s"] for r in traced)
            / median(plain, "raw_wall_s") - 1.0)
        layers["calib.tick_ms"] = 1e3 * median(plain, "tick")
        layers["calib.raw_wall_s"] = median(plain, "raw_wall_s")
        table = layer_table(args.workload, layers)
        print(table)
        (SCRATCH / f"layers-{args.workload}-seed{args.seed}.txt").write_text(
            table + "\n")
        print(f"chrome trace: {traced[-1]['trace_path']}")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {key: median(plain, key)
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        values["ok_rate"] = ((checker.attempted - checker.failed)
                             / checker.attempted)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, metric in metrics.items():
            print(f"{args.workload}: {name} = {metric['value']:.6g} "
                  f"{metric['unit']}")
        print(f"{args.workload}: raw host times (not adjusted): setup "
              f"{statistics.median(raw_setups):.6g} s, wall "
              f"{median(plain, 'raw_wall_s'):.6g} s, cpu "
              f"{median(plain, 'raw_cpu_s'):.6g} s; median tick "
              f"{1e3 * median(plain, 'tick'):.4g} ms")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
