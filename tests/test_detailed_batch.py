"""Batched detailed-pipeline kernel: bit-identity, raggedness, routing.

With the compiled kernel, :func:`repro.uarch.detailed.run_detailed_group`
stacks every core of a detailed group in a
:class:`~repro.uarch.pipeline_kernel.BatchKernelState` and advances
the whole group per interval in one ``prange`` call; interpreted, it
runs members one at a time.  This module pins, against the golden
digests of ``test_detailed_kernel``:

* batch-of-one and heterogeneous batch-of-B runs, sliced back per core;
* thread-count invariance (``REPRO_JIT_THREADS`` in {1, 2, max} —
  rows are independent, so the prange schedule must never show);
* ragged groups: members resuming from different checkpoints (or none)
  under one ``active`` mask, with mid-stream batched checkpoint saves
  whose per-core ``ckpt/v2`` slices round-trip through either path;
* group validation: members must share one group signature;
* the engine plumbing: group routing in ``repro.engine.kernel``,
  group-aware chunk carving/planning in ``repro.engine.executor``, and
  the compile-memo / thread-knob / cache-dir helpers in
  ``repro.uarch.jit``.

Without numba the batched path is still exercised: :func:`_route_through_batch`
swaps the compiled ``prange`` loop for :func:`_serial_batch_step`, the
same row slicing stepped serially by the uncompiled kernel.
"""

import dataclasses

import numpy as np
import pytest
from test_detailed_kernel import GOLDEN_DIGESTS, IPS, N_SAMPLES, _digest, \
    golden_cases

from repro.engine.executor import ChunkTuner, batch_group_run, carve_chunk
from repro.engine.jobs import SimJob
from repro.errors import SimulationError
from repro.uarch import detailed, jit, pipeline_kernel
from repro.uarch.params import baseline_config
from repro.uarch.pipeline import OutOfOrderCore
from repro.workloads.spec2000 import get_benchmark

BATCH_ON = "repro.uarch.jit.jit_enabled"


def _job(bench, config, **kwargs):
    return SimJob(bench, config, backend="detailed", n_samples=N_SAMPLES,
                  instructions_per_sample=IPS, **kwargs)


def _golden_jobs(bench):
    """All golden cases for one benchmark, as a runnable group."""
    cases = [c for c in golden_cases() if c[1] == bench]
    return [c[0] for c in cases], [_job(bench, c[2]) for c in cases]


def _serial_batch_step(t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
                       active, lens, cfg_i, cfg_f, *arrays):
    """``repro.uarch._pipeline_batch_numba``'s prange loop, run serially
    through the uncompiled kernel: same row slicing, same per-row
    scratch."""
    *stacked, sc, fc, out_counters, out_ace, out_ints = arrays
    columns = [column for _, column, _ in pipeline_kernel._STATE_FIELDS
               if column is not None]
    n = len(t_op)
    for b in range(len(active)):
        if active[b] == 1:
            rows = [array[b, :lens[b, column]]
                    for array, column in zip(stacked, columns)]
            pipeline_kernel.step_interval(
                t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
                cfg_i[b], cfg_f[b], *rows,
                np.zeros(n, np.int64), np.zeros(n, np.uint8),
                np.zeros(5, np.int64),
                sc[b], fc[b], out_counters[b], out_ace[b], out_ints[b])


def _route_through_batch(monkeypatch):
    """Build array-backed cores and send detailed groups through
    BatchKernelState: the compiled prange stepper where numba is
    installed, :func:`_serial_batch_step` elsewhere."""
    monkeypatch.setattr("repro.uarch.pipeline.jit_enabled", lambda: True)
    monkeypatch.setattr(BATCH_ON, lambda jit=None: True)
    if not jit.jit_available():
        monkeypatch.setattr(pipeline_kernel, "compiled_batch_step",
                            lambda: _serial_batch_step)


# ----------------------------------------------------------------------
# Golden digests through the batched stepper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", ["gcc", "mcf", "swim"])
def test_batched_group_matches_goldens(monkeypatch, bench):
    """Heterogeneous groups (DVM members included) and the swim
    batch-of-one."""
    _route_through_batch(monkeypatch)
    labels, jobs = _golden_jobs(bench)
    results = detailed.run_detailed_group(jobs)
    for label, result in zip(labels, results):
        assert _digest(result) == GOLDEN_DIGESTS[label]


def test_batch_of_b_slices_per_core(monkeypatch):
    """A widened batch (ragged widths: iq/rob/lsq all differ) yields the
    golden stream for the member that has one, and every member matches
    its own interpreted per-job run bit-for-bit."""
    base = baseline_config()
    configs = [base,
               dataclasses.replace(base, iq_size=16),
               dataclasses.replace(base, iq_size=24, rob_size=128),
               dataclasses.replace(base, lsq_size=24),
               base.with_dvm(True, 0.3)]
    jobs = [_job("gcc", c) for c in configs]
    references = [job.run() for job in jobs]
    _route_through_batch(monkeypatch)
    results = detailed.run_detailed_group(jobs)
    assert _digest(results[0]) == GOLDEN_DIGESTS["gcc-baseline"]
    for scalar, result in zip(references, results):
        for name in scalar.traces:
            assert np.array_equal(result.traces[name],
                                  scalar.traces[name]), name
        for name in scalar.components:
            assert np.array_equal(result.components[name],
                                  scalar.components[name]), name


@pytest.mark.skipif(not jit.jit_available(), reason="numba not installed")
def test_batched_group_compiled_matches_goldens():
    labels, jobs = _golden_jobs("gcc")
    try:
        jit.set_jit(True)
        results = detailed.run_detailed_group(jobs)
    finally:
        jit.set_jit(None)
    for label, result in zip(labels, results):
        assert _digest(result) == GOLDEN_DIGESTS[label]


def test_thread_count_invariance(monkeypatch):
    """{1, 2, max} threads produce byte-identical streams (compiled
    prange in the numba leg; the knob is still exercised without it)."""
    _route_through_batch(monkeypatch)
    labels, jobs = _golden_jobs("gcc")
    counts = [1, 2, jit.apply_jit_threads() or 1, None]
    try:
        for count in counts:
            jit.set_jit_threads(count)
            results = detailed.run_detailed_group(jobs)
            for label, result in zip(labels, results):
                assert _digest(result) == GOLDEN_DIGESTS[label], \
                    (label, count)
    finally:
        jit.set_jit_threads(None)


def test_group_requires_one_signature():
    _, jobs = _golden_jobs("swim")
    results = detailed.run_detailed_group(jobs)
    assert _digest(results[0]) == GOLDEN_DIGESTS["swim-strong"]
    assert detailed.run_detailed_group([]) == []
    with pytest.raises(SimulationError, match="must share"):
        detailed.run_detailed_group(
            [_job("gcc", baseline_config()), _job("mcf", baseline_config())])
    with pytest.raises(SimulationError, match="must share"):
        detailed.run_detailed_group(
            [_job("gcc", baseline_config()),
             SimJob("gcc", baseline_config(), backend="interval")])


@pytest.mark.parametrize("route", ["per-member", "batched"])
def test_group_rejects_a_different_attached_workload(monkeypatch, route):
    """Two jobs named ``gcc``, one carrying mcf's workload model: they
    synthesize different traces, so they cannot share a group's one
    trace per interval — and the engine runs each as its own group."""
    if route == "batched":
        _route_through_batch(monkeypatch)
    disguised = dataclasses.replace(get_benchmark("mcf"), name="gcc")
    jobs = [_job("gcc", baseline_config()),
            _job("gcc", baseline_config(), workload=disguised)]
    with pytest.raises(SimulationError, match="must share"):
        detailed.run_detailed_group(jobs)
    from repro.engine.kernel import run_jobs

    for job, result in zip(jobs, run_jobs(jobs)):
        assert _digest(result) == _digest(job.run())
    assert _digest(jobs[0].run()) != _digest(jobs[1].run())


# ----------------------------------------------------------------------
# Ragged checkpoint resume through the batch
# ----------------------------------------------------------------------
class _Crash(Exception):
    pass


def _crash_at(monkeypatch, interval):
    """Make the group loop crash when synthesizing ``interval``."""
    original = detailed.synthesize_interval

    def failing(workload, i, n, ips, seed=None):
        if i == interval and seed is None:
            raise _Crash()
        if seed is None:
            return original(workload, i, n, ips)
        return original(workload, i, n, ips, seed=seed)

    monkeypatch.setattr(detailed, "synthesize_interval", failing)


def test_ragged_batched_checkpoint_resume(monkeypatch, tmp_path):
    """Crash a batched run mid-stream, orphan one member's snapshot, and
    resume: a ragged group (two members resuming, one fresh) must match
    the uncheckpointed per-job reference bit-for-bit and clean up."""
    base = baseline_config()
    configs = [base.with_dvm(True, 0.3),
               dataclasses.replace(base, iq_size=16),
               dataclasses.replace(base, rob_size=128)]
    jobs = [_job("gcc", c, checkpoint_every=3, checkpoint_dir=str(tmp_path))
            for c in configs]
    reference = [dataclasses.replace(job, checkpoint_every=0).run()
                 for job in jobs]

    _route_through_batch(monkeypatch)
    _crash_at(monkeypatch, 5)
    with pytest.raises(_Crash):
        detailed.run_detailed_group(jobs)
    monkeypatch.undo()

    snapshots = sorted(tmp_path.glob("*.ckpt.npz"))
    assert len(snapshots) == len(jobs)  # saved mid-stream at interval 3
    (tmp_path / f"{jobs[2].key()}.ckpt.npz").unlink()  # force one fresh

    _route_through_batch(monkeypatch)
    resumed = detailed.run_detailed_group(jobs)
    for result, scalar in zip(resumed, reference):
        assert _digest(result) == _digest(scalar)
    assert not list(tmp_path.glob("*.ckpt.npz"))  # completed: all removed


def test_batched_snapshot_resumes_under_scalar_engine(monkeypatch, tmp_path):
    """A snapshot written from stacked state is a plain per-core
    ``ckpt/v2`` file: an interpreted ``job.run()`` resumes it
    bit-identically."""
    label, bench, config = golden_cases()[4]  # gcc-dvm
    job = _job(bench, config, checkpoint_every=3,
               checkpoint_dir=str(tmp_path))
    _route_through_batch(monkeypatch)
    _crash_at(monkeypatch, 5)
    with pytest.raises(_Crash):
        detailed.run_detailed_group([job, _job(bench, baseline_config(),
                                               checkpoint_every=3,
                                               checkpoint_dir=str(tmp_path))])
    monkeypatch.undo()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
    assert _digest(job.run()) == GOLDEN_DIGESTS[label]


def test_scalar_snapshot_resumes_under_batch(monkeypatch, tmp_path):
    """And the converse: an interpreted run's snapshot resumes through
    the batched stepper."""
    label, bench, config = golden_cases()[0]
    job = _job(bench, config, checkpoint_every=3,
               checkpoint_dir=str(tmp_path))
    calls = [0]
    original = OutOfOrderCore.run_interval

    def wrapper(self, trace, _original=original):
        calls[0] += 1
        if calls[0] > 5:
            raise _Crash()
        return _original(self, trace)

    monkeypatch.setattr(OutOfOrderCore, "run_interval", wrapper)
    with pytest.raises(_Crash):
        job.run()
    monkeypatch.undo()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
    _route_through_batch(monkeypatch)
    result, = detailed.run_detailed_group([job])
    assert _digest(result) == GOLDEN_DIGESTS[label]


# ----------------------------------------------------------------------
# Engine routing
# ----------------------------------------------------------------------
def test_run_group_routes_groups_through_batch(monkeypatch):
    from repro.engine import kernel

    seen = []
    real = detailed.run_detailed_group

    def spy(jobs):
        seen.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr("repro.uarch.detailed.run_detailed_group", spy)
    _route_through_batch(monkeypatch)
    labels, jobs = _golden_jobs("gcc")
    results = kernel.run_jobs(jobs)
    assert seen == [len(jobs)]
    for label, result in zip(labels, results):
        assert _digest(result) == GOLDEN_DIGESTS[label]


def test_run_group_per_job_when_batching_off(monkeypatch):
    """Interpreted, a group runs member by member: nothing is stacked."""
    from repro.engine import kernel

    def explode(states):  # pragma: no cover - must not run
        raise AssertionError("batched path taken while interpreted")

    monkeypatch.setattr(pipeline_kernel, "BatchKernelState", explode)
    monkeypatch.setattr(BATCH_ON, lambda jit=None: False)
    labels, jobs = _golden_jobs("gcc")
    for label, result in zip(labels, kernel.run_jobs(jobs)):
        assert _digest(result) == GOLDEN_DIGESTS[label]


# ----------------------------------------------------------------------
# Group-aware chunk carving and planning
# ----------------------------------------------------------------------
def _mixed_jobs():
    base = baseline_config()
    variants = [dataclasses.replace(base, iq_size=16 + 8 * i)
                for i in range(6)]
    interval = [SimJob("gcc", c, backend="interval") for c in variants[:2]]
    group_a = [_job("gcc", c) for c in variants]
    group_b = [_job("mcf", c) for c in variants[:2]]
    return interval + group_a + group_b  # runs: 2 interval | 6 gcc | 2 mcf


def test_carve_chunk_rounds_down_to_group_boundary(monkeypatch):
    monkeypatch.setattr(BATCH_ON, lambda jit=None: True)
    jobs = _mixed_jobs()
    # Detailed run starts at 2; a 4-job chunk from there would end at 6,
    # inside the gcc group — it must stop at the run start instead...
    assert carve_chunk(jobs, 2, 4) == 8  # ...no: run IS the chunk head
    # A chunk that holds the whole gcc run plus part of the mcf run
    # rounds down to the mcf boundary.
    assert carve_chunk(jobs, 2, 7) == 8
    assert carve_chunk(jobs, 2, 100) == 10  # both runs fit: keep all


def test_carve_chunk_extends_over_its_own_group(monkeypatch):
    monkeypatch.setattr(BATCH_ON, lambda jit=None: True)
    jobs = _mixed_jobs()
    # Chunk starting inside the gcc run with a boundary that shears it:
    # the run is the whole chunk, so it extends to the run's end.
    assert carve_chunk(jobs, 4, 2) == 8
    # Backend homogeneity still cuts first: interval jobs never join.
    assert carve_chunk(jobs, 0, 6) == 2


def test_carve_chunk_unchanged_when_batching_off(monkeypatch):
    monkeypatch.setattr(BATCH_ON, lambda jit=None: False)
    jobs = _mixed_jobs()
    assert carve_chunk(jobs, 2, 4) == 6  # shearing allowed, as before
    assert carve_chunk(jobs, 0, 6) == 2


def test_batch_group_run_lengths(monkeypatch):
    jobs = _mixed_jobs()
    monkeypatch.setattr(BATCH_ON, lambda jit=None: True)
    assert batch_group_run(jobs, 0) == 1   # interval job
    assert batch_group_run(jobs, 2) == 6   # gcc run
    assert batch_group_run(jobs, 4) == 4   # tail of the gcc run
    assert batch_group_run(jobs, 8) == 2   # mcf run
    monkeypatch.setattr(BATCH_ON, lambda jit=None: False)
    assert batch_group_run(jobs, 2) == 1


def test_chunk_tuner_plans_whole_groups():
    tuner = ChunkTuner(target_seconds=1.0)
    tuner.record("detailed", 0.01)
    flat = tuner.plan("detailed", 640, workers=4)
    grouped = tuner.plan("detailed", 640, workers=4, group_size=64)
    assert grouped % 64 == 0
    # Planning in group units keeps the same per-chunk time target:
    # 100 jobs' worth of work, rounded to one whole 64-job group.
    assert flat == 100 and grouped == 64
    # An untuned key probes a single group rather than shearing one.
    probe = ChunkTuner().plan("detailed", 640, workers=4, group_size=64)
    assert probe == 64
    # group_size=1 is exactly the historical plan.
    assert tuner.plan("detailed", 640, 4, group_size=1) == flat


# ----------------------------------------------------------------------
# jit helpers: thread knob, compile memo, cache dir
# ----------------------------------------------------------------------
def test_jit_threads_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_JIT_THREADS", raising=False)
    assert jit.jit_threads() == 1
    monkeypatch.setenv("REPRO_JIT_THREADS", "3")
    assert jit.jit_threads() == 3
    try:
        jit.set_jit_threads(2)
        assert jit.jit_threads() == 2  # override beats environment
    finally:
        jit.set_jit_threads(None)
    assert jit.jit_threads() == 3
    assert jit.apply_jit_threads() >= 1
    monkeypatch.setenv("REPRO_JIT_THREADS", "zero")
    with pytest.raises(ValueError, match="REPRO_JIT_THREADS"):
        jit.jit_threads()
    with pytest.raises(ValueError, match=">= 1"):
        jit.set_jit_threads(0)


def test_jit_cache_dir_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_JIT_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert jit.jit_cache_dir() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/rc")
    assert jit.jit_cache_dir() == "/tmp/rc/numba-cache"
    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", "/tmp/explicit")
    assert jit.jit_cache_dir() == "/tmp/explicit"


def test_compile_njit_memoizes_per_flags():
    def probe(x):
        return x + 1

    first = jit.compile_njit(probe)
    assert jit.compile_njit(probe) is first  # memo hit, no recompile
    parallel = jit.compile_njit(probe, parallel=True)
    assert jit.compile_njit(probe, parallel=True) is parallel
    if jit.jit_available():
        assert first is not parallel  # distinct flag keys
        assert first(1) == 2
    else:
        assert first is False and parallel is False


def test_compiled_batch_step_memoized():
    from repro.uarch import pipeline_kernel

    first = pipeline_kernel.compiled_batch_step()
    assert pipeline_kernel.compiled_batch_step() is first
    if not jit.jit_available():
        assert first is False
