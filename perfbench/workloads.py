"""The four benchmark workloads, each one repetition in this process.

Every workload is a function ``(seed, size, scratch, steps) ->
Outcome``.  It builds its inputs from ``seed``, runs its work as one or
two timed steps through ``steps``, and returns the output units the
parent process checks.  The wall time of a repetition is the sum of
its steps; set-up ends where the first step starts.  ``size`` is
``"full"`` for a measured repetition and ``"settle"`` for the small
untimed run that fills file caches and writes byte-code before anything
is timed.

Why each workload exists, and its traffic dimensions
-----------------------------------------------------

``paper_fig8``
    The paper's headline result: ``run_experiment("fig8")`` at
    ``Scale.quick()`` -- 12 benchmarks x (200 LHS train + 50 random
    held-out test) configurations x 128 samples on the interval
    backend (3000 simulation jobs), then 36 wavelet-predictor fits
    (12 benchmarks x 3 domains, 16 RBF networks each = 576 networks)
    scored on the held-out configurations.  Bound by ``repro.core``
    fitting; simulation is a few percent.  The accuracy it prints is
    checked only
    against the paper's published Figure 8 medians (CPI 2.3 %,
    power 2.6 %), never against hardware.

``active_dse``
    The closed-loop search on gcc: minimise mean CPI under max power
    <= 70 W, budget 160, batch 16, 32 seed-LHS initial configurations,
    plus the matched-seed 160-point LHS sweep that sets the target.
    Convergence stopping is off (``patience=0``), so every seed spends
    the whole budget in 9 rounds and the work per run does not depend
    on how soon a seed happens to converge.
    Many small ensemble refits and large candidate-pool predictions:
    model fit, prediction and acquisition show here, simulation barely.
    Both steps share one engine, so the loop's 32 initial
    configurations come from the in-memory result cache the LHS sweep
    filled.

``detailed_sweep``
    The cycle-level backend on the same 8 configurations for gcc and
    for mcf -- 4 LHS configurations and their mirror images (see
    ``antithetic_configs``) -- 64 samples x 1000 instructions each
    (16 jobs, 1.02 M measured instructions).  gcc's working set fits the modelled L1/L2
    caches better than mcf's, which misses to memory, so the two drive
    different pipeline paths.  Each job first simulates an unmeasured
    warm-up interval that fills the modelled caches and predictors.
    No model fit: the pipeline is ~98 % of the time; the first job of
    each benchmark synthesizes the instruction traces and the others
    reuse them from the trace memo.

``disk_sweep``
    12 benchmarks x 200 LHS configurations x 128 samples (2400 interval
    jobs) through a ``ResultCache`` on a fresh, empty directory inside
    the checkout.  Cold pass: simulate and ``put`` every result.  Warm
    pass: a new engine (empty memory tier) ``get``s every result from
    disk.  Both pass times are printed.  The only workload where ``repro.engine.cache`` dominates;
    writes and reads are measured side by side.

All four run in-process with the in-process executor: the pool,
shared-memory and remote transports are not measured, and neither is
any numba-compiled path (the JIT stays off).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict

import numpy as np

import repro
from repro.dse.explorer import Constraint, Objective
from repro.dse.lhs import sample_train_configs
from repro.engine import create_engine, make_jobs
from repro.experiments.context import ExperimentContext, Scale
from repro.experiments.registry import run_experiment
from repro.workloads.spec2000 import BENCHMARK_NAMES

@dataclass
class Outcome:
    """What one repetition of a workload produced.

    ``units`` maps each checked output to a short digest; the parent
    compares them with the pinned digests and across repetitions.
    ``failures`` maps a unit to the reason it failed a check made in
    this process (such as warm bytes differing from cold bytes).
    ``figures`` are results printed for the reader.
    """

    units: Dict[str, str]
    failures: Dict[str, str] = field(default_factory=dict)
    figures: Dict[str, float] = field(default_factory=dict)


def digest(*arrays_or_text) -> str:
    """Short SHA-256 over arrays' bytes and/or text."""
    h = hashlib.sha256()
    for item in arrays_or_text:
        if isinstance(item, str):
            h.update(item.encode("utf8"))
        else:
            arr = np.ascontiguousarray(item)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()[:16]


def text(values) -> str:
    """Values as text, floats to 9 significant digits, so a model
    output's digest does not hang on its last bit."""
    return " ".join(f"{v:.9g}" if isinstance(v, (float, np.floating))
                    else str(v) for v in values)


def result_digest(result) -> str:
    """Digest of every trace and component array of one result."""
    names = sorted(result.traces) + sorted(result.components)
    arrays = ([result.traces[n] for n in sorted(result.traces)]
              + [result.components[n] for n in sorted(result.components)])
    return digest(" ".join(names), *arrays)


class SetupDone(Exception):
    """Raised where the first step would start, in a set-up-only run."""


class Steps:
    """Times the steps of a repetition.

    Records each step's wall time, the CPU time of all of them, and
    ``ready``, the ``time.monotonic()`` reading when the first step
    starts (the end of set-up).  With ``setup_only`` the first step
    raises :class:`SetupDone` instead of running.  ``span`` is the
    tracer's span factory in a traced repetition and ``None``
    otherwise, so untraced repetitions time nothing extra.  With a
    ``calibrator`` (``calibrate.py``), a burst of ticks right after
    ``ready`` gives ``setup_tick``, ticks run during every step, and
    their time is taken out of the steps' wall and CPU times.
    """

    def __init__(self, span=None, setup_only: bool = False,
                 calibrator=None):
        self.span = span
        self.setup_only = setup_only
        self.calibrator = calibrator
        self.seconds: Dict[str, float] = {}
        self.cpu_s = 0.0
        self.ready = None
        self.setup_tick = None

    def run(self, name: str, fn: Callable):
        cal = self.calibrator
        if self.ready is None:
            self.ready = time.monotonic()
            if cal is not None:
                self.setup_tick = cal.burst()
            if self.setup_only:
                raise SetupDone
        tick_wall, tick_cpu = (cal.wall_s, cal.cpu_s) if cal else (0.0, 0.0)
        start, cpu = time.perf_counter(), time.process_time()
        if cal is not None:
            cal.start()
        try:
            if self.span is None:
                value = fn()
            else:
                with self.span("experiments", name):
                    value = fn()
        finally:
            if cal is not None:
                cal.stop()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if cal is not None:
            wall -= cal.wall_s - tick_wall
            cpu -= cal.cpu_s - tick_cpu
        self.seconds[name] = wall
        self.cpu_s += cpu
        return value


# ----------------------------------------------------------------------
def paper_fig8(seed: int, size: str, scratch: Path, steps: Steps) -> Outcome:
    scale = replace(Scale.quick(), seed=seed)
    if size == "settle":
        scale = replace(scale, n_train=24, n_test=8, benchmarks=("gcc",))
    ctx = ExperimentContext(scale=scale, engine=create_engine())
    result = steps.run("experiment", lambda: run_experiment("fig8", ctx))

    units = {"render": digest(result.render())}
    for domain in ("cpi", "power", "avf"):
        table = result.table(f"{domain.upper()} MSE%")
        for row in table.rows:
            units[f"{domain}/{row[0]}"] = digest(text(row))
    overall = {row[0]: float(row[1])
               for row in result.table("Overall accuracy").rows}
    figures = {f"{d}_mse_pct": overall[d] for d in ("cpi", "power", "avf")}
    return Outcome(units, figures=figures)


# ----------------------------------------------------------------------
def active_dse(seed: int, size: str, scratch: Path, steps: Steps) -> Outcome:
    n_lhs, n_init, batch = (160, 32, 16) if size == "full" else (24, 8, 8)
    space = repro.paper_design_space()
    engine = create_engine()
    objective = Objective("cpi", "mean")
    constraint = Constraint("power", "max", "<=", 70.0)
    lhs_configs = sample_train_configs(space, n_lhs, seed=seed)

    lhs = steps.run("lhs_sweep", lambda: repro.SweepRunner(
        n_samples=128, engine=engine).run_configs("gcc", lhs_configs, space))
    scores = np.array([objective.score(r) for r in lhs.domain("cpi")])
    feasible = np.array([constraint.satisfied(r) for r in lhs.domain("power")])
    target = float(scores[feasible].min()) if feasible.any() else float("inf")

    search = steps.run("active_search", lambda: repro.SweepRunner(
        n_samples=128, engine=engine).run_active(
            "gcc", objective, constraints=[constraint], budget=n_lhs,
            batch_size=batch, n_init=n_init, seed=seed, space=space,
            patience=0, init_configs=lhs_configs[:n_init]))

    # 0 when the loop never matches the LHS target within its budget.
    sims_to_target = next((r.n_simulations for r in search.rounds
                           if r.best_score <= target + 1e-12), 0)
    units = {"lhs_target": digest(text([target]), lhs.domain("cpi"),
                                  lhs.domain("power"))}
    keys = [config.key() for config in search.observed.configs]
    for r in search.rounds:
        chosen = keys[r.n_simulations - r.n_new:r.n_simulations]
        units[f"round{r.round_index:02d}"] = digest(text((
            r.strategy, r.n_new, r.n_simulations, r.n_feasible,
            r.best_score, *chosen)))
    units["best_config"] = digest(str(search.best_config.key()
                                      if search.best_config else None))
    units["sims_to_target"] = digest(str(sims_to_target))
    figures = {"sims_to_target": sims_to_target,
               "lhs_target_cpi": target,
               "active_best_cpi": search.best_score,
               "rounds": len(search.rounds)}
    return Outcome(units, figures=figures)


# ----------------------------------------------------------------------
DETAILED_BENCHMARKS = ("gcc", "mcf")


def antithetic_configs(space, n_pairs: int, seed: int):
    """``n_pairs`` LHS configurations, each followed by its mirror image.

    The mirror takes every parameter to the opposite train level, so a
    narrow machine with small caches is paired with a wide one with
    large caches.  A detailed job's cost follows the simulated cycle
    count, and a pair's total cost depends far less on the seed than
    either member's does.
    """
    configs = []
    for config in sample_train_configs(space, n_pairs, seed=seed):
        values = space.values_of(config)
        mirror = [len(p.train_levels) - 1 - p.train_levels.index(values[p.name])
                  for p in space.parameters]
        configs += [config, space.config_from_level_indices(mirror, "train")]
    return configs


def detailed_sweep(seed: int, size: str, scratch: Path,
                   steps: Steps) -> Outcome:
    n_pairs, n_samples = (4, 64) if size == "full" else (1, 4)
    space = repro.paper_design_space()
    configs = antithetic_configs(space, n_pairs, seed)
    engine = create_engine()
    jobs = [job for bench in DETAILED_BENCHMARKS
            for job in make_jobs(bench, configs, backend="detailed",
                                 n_samples=n_samples,
                                 instructions_per_sample=1000)]
    results = steps.run("sweep", lambda: engine.run(jobs))

    units = {f"{job.benchmark}/cfg{i % len(configs)}": result_digest(result)
             for i, (job, result) in enumerate(zip(jobs, results))}
    return Outcome(units, figures={"measured_kinst": len(jobs) * n_samples})


# ----------------------------------------------------------------------
def disk_sweep(seed: int, size: str, scratch: Path, steps: Steps) -> Outcome:
    benchmarks, n_configs = ((BENCHMARK_NAMES, 200) if size == "full"
                             else (BENCHMARK_NAMES[:2], 8))
    space = repro.paper_design_space()
    configs = sample_train_configs(space, n_configs, seed=seed)
    jobs = [job for bench in benchmarks for job in make_jobs(bench, configs)]
    cache_dir = scratch / "result-cache"

    cold_engine = create_engine(cache_dir=cache_dir)
    cold = steps.run("cold_pass", lambda: cold_engine.run(jobs))
    warm_engine = create_engine(cache_dir=cache_dir)
    warm = steps.run("warm_pass", lambda: warm_engine.run(jobs))

    stats = warm_engine.cache.stats
    units = {"warm_hits": digest(text((stats.disk_hits, stats.misses)))}
    failures = {}
    if stats.disk_hits != len(jobs) or stats.misses:
        failures["warm_hits"] = (f"{stats.describe()}, expected "
                                 f"{len(jobs)} disk hits")
    for bench in benchmarks:
        rows = [i for i, job in enumerate(jobs) if job.benchmark == bench]
        cold_digest = digest(*(result_digest(cold[i]) for i in rows))
        warm_digest = digest(*(result_digest(warm[i]) for i in rows))
        if warm_digest != cold_digest:
            failures[bench] = "warm-pass bytes differ from cold-pass bytes"
        units[bench] = cold_digest
    disk_mb = cold_engine.cache.disk_bytes() / 1e6
    return Outcome(units, failures=failures, figures={"disk_mb": disk_mb})


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "paper_fig8": paper_fig8,
    "active_dse": active_dse,
    "detailed_sweep": detailed_sweep,
    "disk_sweep": disk_sweep,
}
