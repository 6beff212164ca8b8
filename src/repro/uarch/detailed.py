"""Detailed simulation driver: trace synthesis + pipeline + models.

Runs the cycle-level :class:`~repro.uarch.pipeline.OutOfOrderCore` over a
synthesized instruction stream, producing the same per-interval
CPI / power / AVF / IQ-AVF traces as the interval backend — the ground
truth used for mechanism studies (the DVM case study) and for validating
the interval model's first-order equations.

Detailed jobs cost seconds each (the engine's dominant expense), so
:meth:`DetailedSimulator.run` supports **per-interval checkpointing**:
every ``checkpoint_every`` intervals it atomically snapshots the core's
full microarchitectural state (caches, predictor, DVM controller, the
cross-interval dependence window) plus the traces measured so far into
an ``.npz`` file.  A re-run with the same arguments resumes from the
snapshot and produces a **bit-identical**
:class:`~repro.uarch.simulator.SimulationResult` — a killed sweep
restarts mid-benchmark instead of from scratch.  The engine keys
checkpoint files by job content hash under the cache directory (see
:func:`checkpoint_settings_from_env` and
:meth:`repro.engine.jobs.SimJob.run`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.power.wattch import WattchModel
from repro.reliability.avf import AVFModel
from repro.reliability.dvm import DVMController, DVMPolicy
from repro.uarch.params import MachineConfig
from repro.workloads.generator import synthesize_interval
from repro.workloads.phases import WorkloadModel
from repro.workloads.spec2000 import get_benchmark

#: Bump when checkpoint contents change incompatibly: old snapshots are
#: then ignored (and deleted) instead of mis-resumed.  v2 replaced the
#: pickled core blob with the container-independent array snapshot
#: (:meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state`) stored
#: as plain ``state_*`` arrays — no pickling on either side, and a
#: compiled or an interpreted core can resume it.  v1 files fail the
#: meta digest (the version participates) and are deleted, never
#: mis-resumed.
CHECKPOINT_VERSION = "ckpt/v2"

#: Trace arrays a snapshot carries, in a fixed order.
_TRACE_FIELDS = ("cpi", "power", "avf", "iq_avf", "mispredicts", "throttled")


def _default_checkpoint_dir() -> str:
    """Directory snapshots land in when none is configured explicitly:
    ``$REPRO_CHECKPOINT_DIR``, else ``$REPRO_CACHE_DIR/checkpoints``
    when a cache directory is configured, else ``.repro-checkpoints``.
    """
    directory = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
    if directory:
        return directory
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return (str(Path(cache_dir) / "checkpoints") if cache_dir
            else ".repro-checkpoints")


def resolve_checkpoint_settings(every: Optional[int] = None,
                                directory: Optional[str] = None,
                                ) -> Tuple[int, Optional[str]]:
    """Effective ``(checkpoint_every, checkpoint_dir)`` for one run.

    Explicit arguments — the values a :class:`~repro.engine.jobs.SimJob`
    carries — win; the ``REPRO_CHECKPOINT_EVERY`` /
    ``REPRO_CHECKPOINT_DIR`` environment only fills the gaps, so
    checkpoint settings normally travel *inside* jobs (to pool workers
    and remote hosts alike) and the environment is never mutated to
    transport them.
    """
    if every is None:
        raw = os.environ.get("REPRO_CHECKPOINT_EVERY", "").strip()
        if not raw:
            return 0, None
        try:
            every = int(raw)
        except ValueError:
            raise SimulationError(
                f"REPRO_CHECKPOINT_EVERY must be an integer, got {raw!r}"
            )
    if every <= 0:
        return 0, None
    return every, (directory or _default_checkpoint_dir())


def checkpoint_settings_from_env() -> Tuple[int, Optional[str]]:
    """The ``(checkpoint_every, checkpoint_dir)`` environment knobs.

    Kept for library users who configure checkpointing through the
    environment; equivalent to :func:`resolve_checkpoint_settings` with
    no explicit overrides.
    """
    return resolve_checkpoint_settings(None, None)


def _checkpoint_meta(workload: WorkloadModel, config: MachineConfig,
                     n_samples: int, instructions_per_sample: int,
                     warmup: bool,
                     dvm_controller: Optional[DVMController]) -> str:
    """Digest identifying which run a snapshot belongs to.

    A snapshot resumed under any different argument would silently
    produce wrong traces; the digest makes such mismatches detectable
    (stale files are ignored and deleted).  The workload and any DVM
    policy participate by *content*, not name, so editing a custom
    :class:`WorkloadModel` — or overriding ``dvm_policy`` — between
    runs invalidates old snapshots too.
    """
    from repro.engine.jobs import _canonical

    policy = _canonical(dvm_controller.policy) if dvm_controller else None
    parts = (CHECKPOINT_VERSION, _canonical(workload), n_samples,
             instructions_per_sample, bool(warmup), config.key(), policy)
    return hashlib.sha256(repr(parts).encode("utf8")).hexdigest()


def _save_checkpoint(path: Path, meta: str, next_interval: int,
                     core, traces) -> None:
    """Atomically snapshot ``core`` + measured traces (tmp + replace)."""
    payload = {"meta": np.array(meta), "next": np.array(next_interval),
               "state_version": np.array(CHECKPOINT_VERSION)}
    for name, arr in core.snapshot_state().items():
        payload["state_" + name] = arr
    for name, arr in zip(_TRACE_FIELDS, traces):
        payload[name] = arr[:next_interval]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.stem,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_checkpoint(path: Path, meta: str, n_samples: int,
                     config: MachineConfig,
                     dvm_controller: Optional[DVMController]):
    """``(core, traces, next_interval)`` from a snapshot, or ``None``.

    Corrupt, stale-version, or wrong-run snapshots are deleted and
    treated as absent — the run then starts from interval 0.  The core
    is rebuilt from ``config`` and the ``state_*`` arrays are loaded
    through :meth:`~repro.uarch.pipeline.OutOfOrderCore.restore_state`
    — no unpickling of executable state ever happens.
    """
    from repro.uarch.pipeline import OutOfOrderCore

    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if ("state_version" not in data.files
                    or str(data["state_version"]) != CHECKPOINT_VERSION):
                raise ValueError("checkpoint from an incompatible version")
            if str(data["meta"]) != meta:
                raise ValueError("checkpoint belongs to a different run")
            next_interval = int(data["next"])
            if not 0 < next_interval < n_samples:
                raise ValueError("checkpoint interval out of range")
            traces = []
            for name in _TRACE_FIELDS:
                arr = np.empty(n_samples)
                arr[:next_interval] = data[name]
                traces.append(arr)
            core = OutOfOrderCore(config, dvm=dvm_controller)
            core.restore_state({
                key[len("state_"):]: data[key]
                for key in data.files
                if key.startswith("state_") and key != "state_version"
            })
        return core, traces, next_interval
    except Exception:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def sweep_checkpoints(directory: Union[str, Path],
                      ttl_seconds: float = 7 * 24 * 3600,
                      now: Optional[float] = None) -> Tuple[int, int]:
    """Remove orphaned checkpoint snapshots under ``directory``.

    Returns ``(files_removed, bytes_reclaimed)``.  A snapshot is swept
    when it is a leftover ``*.tmp`` from a crashed atomic save, an
    ``*.npz`` that is unreadable or from another checkpoint version
    (pre-v2 pickled snapshots have no ``state_version`` field), or an
    ``*.npz`` older than ``ttl_seconds`` (completed runs delete their
    snapshot, so an old one belongs to a sweep nobody resumed).
    ``repro cache gc`` calls this for the cache's checkpoint directory.
    """
    root = Path(directory)
    if not root.is_dir():
        return 0, 0
    if now is None:
        now = time.time()
    removed = 0
    reclaimed = 0
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        name = path.name
        if name.endswith(".tmp"):
            stale = True
        elif name.endswith(".npz"):
            try:
                stale = now - path.stat().st_mtime > ttl_seconds
            except OSError:
                continue
            if not stale:
                try:
                    with np.load(path, allow_pickle=False) as data:
                        stale = ("state_version" not in data.files
                                 or str(data["state_version"])
                                 != CHECKPOINT_VERSION)
                except Exception:
                    stale = True
        else:
            continue
        if not stale:
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        reclaimed += size
    return removed, reclaimed


class _Member:
    """One detailed run in progress: its core, its partly filled traces
    and its checkpoint bookkeeping.

    The single driver behind :meth:`DetailedSimulator.run` and
    :func:`run_detailed_group`, so resume, warmup, per-interval
    post-processing and checkpoint saves cannot differ between them.
    Construction resumes from a matching snapshot at
    ``checkpoint_path`` when there is one (``start`` > 0) and builds a
    cold core otherwise.
    """

    def __init__(self, workload: WorkloadModel, config: MachineConfig,
                 dvm_controller: Optional[DVMController], n_samples: int,
                 instructions_per_sample: int, warmup: bool,
                 checkpoint_every: Optional[int], checkpoint_path):
        from repro.uarch.pipeline import OutOfOrderCore

        self.workload = workload
        self.config = config
        self.n_samples = n_samples
        self.instructions_per_sample = instructions_per_sample
        self.warmup = warmup
        self.every = 0
        self.path = self.meta = None
        if (checkpoint_path is not None and checkpoint_every is not None
                and checkpoint_every > 0):
            self.every = checkpoint_every
            self.path = Path(checkpoint_path)
            self.meta = _checkpoint_meta(workload, config, n_samples,
                                         instructions_per_sample, warmup,
                                         dvm_controller)
        resumed = None
        if self.path is not None:
            resumed = _load_checkpoint(self.path, self.meta, n_samples,
                                       config, dvm_controller)
        if resumed is not None:
            self.core, self.traces, self.start = resumed
        else:
            self.core = OutOfOrderCore(config, dvm=dvm_controller)
            self.traces = [np.empty(n_samples) for _ in _TRACE_FIELDS]
            self.start = 0
        self.power_model = WattchModel(config)
        self.avf_model = AVFModel(config)

    def warm_trace(self):
        """The unmeasured warmup interval, or ``None`` when this run
        skips warmup (disabled, or resumed from an already-warm core)."""
        if not self.warmup or self.start > 0:
            return None
        return synthesize_interval(self.workload, 0, self.n_samples,
                                   self.instructions_per_sample, seed=1)

    def trace(self, i: int):
        """Measured interval ``i``'s instruction trace."""
        return synthesize_interval(self.workload, i, self.n_samples,
                                   self.instructions_per_sample)

    def record(self, i: int, stats) -> None:
        """Fold interval ``i``'s statistics into the traces, then
        snapshot when a checkpoint falls due."""
        cpi, power, avf, iq_avf, mispredicts, throttled = self.traces
        cpi[i] = stats.cpi
        power[i] = self.power_model.power_from_counters(stats.counters,
                                                        stats.cycles)
        structure_avf = self.avf_model.avf_from_counters(stats.ace_bit_cycles,
                                                         stats.cycles)
        avf[i] = structure_avf["processor"]
        iq_avf[i] = structure_avf["iq"]
        mispredicts[i] = stats.branch_mispredicts / stats.instructions
        throttled[i] = stats.dvm_throttled_cycles / stats.cycles
        if (self.every and (i + 1) % self.every == 0
                and i + 1 < self.n_samples):
            _save_checkpoint(self.path, self.meta, i + 1, self.core,
                             self.traces)

    def finish(self):
        """Drop the now-stale snapshot and assemble the result."""
        from repro.uarch.simulator import SimulationResult

        if self.path is not None:
            try:
                self.path.unlink()  # the run completed; snapshot stale
            except OSError:
                pass
        cpi, power, avf, iq_avf, mispredicts, throttled = self.traces
        return SimulationResult(
            benchmark=self.workload.name,
            config=self.config,
            n_samples=self.n_samples,
            backend="detailed",
            traces={"cpi": cpi, "power": power, "avf": avf,
                    "iq_avf": iq_avf},
            components={"mispredict_rate": mispredicts,
                        "dvm_throttled_frac": throttled},
        )


class DetailedSimulator:
    """Cycle-level simulation of one machine configuration.

    Parameters
    ----------
    config:
        The machine to simulate; when ``config.dvm_enabled`` a
        :class:`DVMController` with ``config.dvm_threshold`` gates
        dispatch (the paper's Figure 16 policy).
    dvm_policy:
        Optional explicit policy overriding the config-derived one.
    """

    def __init__(self, config: MachineConfig,
                 dvm_policy: Optional[DVMPolicy] = None):
        self.config = config
        if config.dvm_enabled:
            policy = dvm_policy or DVMPolicy(threshold=config.dvm_threshold)
            self.dvm_controller: Optional[DVMController] = DVMController(policy)
        else:
            self.dvm_controller = None

    def run(self, workload: Union[str, WorkloadModel], n_samples: int = 64,
            instructions_per_sample: int = 1000, warmup: bool = True,
            checkpoint_every: Optional[int] = None,
            checkpoint_path=None):
        """Simulate ``n_samples`` intervals and assemble the result.

        With ``warmup=True`` an extra unmeasured copy of the first
        interval is simulated first, standing in for the paper's
        fast-forward to the SimPoint region (caches and predictor warm).

        With ``checkpoint_every`` and ``checkpoint_path`` set, the full
        simulation state is snapshotted every ``checkpoint_every``
        measured intervals; a matching snapshot found at
        ``checkpoint_path`` resumes the run mid-benchmark, bit-identical
        to an uninterrupted one.  The snapshot is removed once the run
        completes.

        Returns a :class:`~repro.uarch.simulator.SimulationResult`
        (imported lazily to avoid a module cycle).
        """
        if isinstance(workload, str):
            workload = get_benchmark(workload)
        if n_samples < 1 or instructions_per_sample < 1:
            raise SimulationError(
                "n_samples and instructions_per_sample must be >= 1"
            )
        member = _Member(workload, self.config, self.dvm_controller,
                         n_samples, instructions_per_sample, warmup,
                         checkpoint_every, checkpoint_path)
        warm = member.warm_trace()
        if warm is not None:
            member.core.run_interval(warm)
        for i in range(member.start, n_samples):
            member.record(i, member.core.run_interval(member.trace(i)))
        return member.finish()


def run_detailed_group(jobs):
    """Run detailed jobs sharing one group signature; results align
    with ``jobs`` and are bit-identical to ``[job.run() for job in
    jobs]``.

    Members must have equal
    :func:`~repro.engine.kernel.group_signature` (same benchmark,
    attached workload, ``n_samples`` and ``instructions_per_sample``),
    else :class:`~repro.errors.SimulationError`: the group synthesizes
    one trace per interval for all of them.

    With the compiled kernel (:func:`~repro.uarch.jit.jit_enabled`) the
    members' states are stacked into one
    :class:`~repro.uarch.pipeline_kernel.BatchKernelState` and every
    interval advances the whole group in one ``prange`` call.  Around
    that call each member keeps its own :class:`_Member` driver — the
    one :meth:`DetailedSimulator.run` uses — so checkpoints stay
    per-member ``ckpt/v2`` files under each job's own settings,
    warmup runs only for members starting fresh, and members resuming
    from different snapshots sit out earlier intervals through the
    ``active`` mask.  Interpreted, members run one at a time through
    ``job.run()``: list-backed state for a whole group at once would
    only add memory.
    """
    from repro.engine.kernel import group_signature
    from repro.uarch.jit import jit_enabled
    from repro.uarch.pipeline_kernel import (BatchKernelState,
                                             compiled_batch_step,
                                             run_interval_on_batch)

    jobs = list(jobs)
    if not jobs:
        return []
    lead = jobs[0]
    signature = group_signature(lead)
    if signature is None or signature[0] != "detailed" or any(
            group_signature(job) != signature for job in jobs):
        raise SimulationError(
            "detailed group members must share benchmark, workload, "
            "n_samples and instructions_per_sample"
        )
    if not (jit_enabled() and compiled_batch_step()):
        return [job.run() for job in jobs]

    workload = (lead.workload if lead.workload is not None
                else get_benchmark(lead.benchmark))
    n_samples = lead.n_samples
    members = []
    for job in jobs:
        every, directory = resolve_checkpoint_settings(
            job.checkpoint_every, job.checkpoint_dir)
        path = Path(directory) / f"{job.key()}.ckpt.npz" if every else None
        members.append(_Member(
            workload, job.config, DetailedSimulator(job.config).dvm_controller,
            n_samples, lead.instructions_per_sample, True, every, path))
    cores = [member.core for member in members]
    batch = BatchKernelState([core.state for core in cores])

    # Unmeasured warmup interval — fresh members only (resumed cores
    # already warmed before their snapshot was taken).
    fresh = np.array([member.start == 0 for member in members],
                     dtype=np.uint8)
    if fresh.any():
        warm = next(m for m in members if m.start == 0).warm_trace()
        run_interval_on_batch(cores, batch, warm, fresh)

    for i in range(min(member.start for member in members), n_samples):
        active = np.array([member.start <= i for member in members],
                          dtype=np.uint8)
        stats = run_interval_on_batch(cores, batch, members[0].trace(i),
                                      active)
        for member, member_stats in zip(members, stats):
            if member_stats is not None:
                member.record(i, member_stats)
    return [member.finish() for member in members]
