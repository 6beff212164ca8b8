"""Golden digests and container parity for the detailed pipeline kernel.

The detailed backend has one pipeline source,
:func:`repro.uarch.pipeline_kernel.step_interval`, run over two
containers: resident Python lists (interpreted) and numpy arrays
(numba-compiled where numba is installed, else stepped uncompiled).
Both must produce bit-identical statistic streams.  This module pins:

* golden sha256 digests of full detailed runs for five
  (benchmark, config) pairs, including DVM-enabled ones — any
  behavioural drift in the pipeline, caches, predictor or DVM
  controller fails loudly;
* parity of the three stepping modes against those digests —
  ``"python"`` (lists), ``"kernel-interp"`` (arrays, uncompiled) and
  ``"kernel"`` (arrays, compiled; CI's with-numba leg, skipped where
  numba is absent);
* canonical-snapshot round-trips across containers, checkpoint
  resume-mid-run (including crashing under one container and resuming
  under the other — compiled <-> interpreted in the numba leg), and
  v1-checkpoint invalidation;
* the trace memo's sharing and isolation guarantees.

Regenerate the digest table with ``tools/capture_detailed_goldens.py``
after an *intended* behaviour change.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.reliability.dvm import DVMController, DVMPolicy
from repro.uarch import jit, pipeline_kernel
from repro.uarch.detailed import (CHECKPOINT_VERSION, DetailedSimulator,
                                  sweep_checkpoints)
from repro.uarch.params import MachineConfig, baseline_config
from repro.uarch.pipeline import OutOfOrderCore
from repro.uarch.pipeline_kernel import KernelState
from repro.workloads.generator import clear_trace_memo, synthesize_interval
from repro.workloads.spec2000 import get_benchmark

N_SAMPLES = 8
IPS = 400

STREAMS = ("cpi", "power", "avf", "iq_avf", "mispredict_rate",
           "dvm_throttled_frac")

#: sha256 over the concatenated float64 bytes of all six streams of an
#: 8-interval x 400-instruction detailed run.
GOLDEN_DIGESTS = {
    "gcc-baseline":
        "72d40a0fe267aa9a2bd4b6eea233fadc404f6f71524086026bbfe77a34c24747",
    "mcf-weak":
        "1cc2d47861d0610e2e7947c96a4cafb551c95360b85145c261883ce8b88206af",
    "swim-strong":
        "caae8a1b1e7016ca7e590652561ed7fef831444f41a824a19dfe68193d3e71bd",
    "mcf-dvm-tight":
        "91e9ddb1185e7c40cb770552e49cd2a0b16dc5286cf22c0d1a387b45d3fcbd25",
    "gcc-dvm":
        "71b15594b533fecab8903fd7f17d2848e32bcbc98f803eb345404a2b11c40d8d",
}


def golden_cases():
    weak = MachineConfig(fetch_width=2, rob_size=96, iq_size=32,
                         lsq_size=16, l2_size_kb=256, l2_latency=20,
                         il1_size_kb=8, dl1_size_kb=8, dl1_latency=4)
    strong = MachineConfig(fetch_width=16, rob_size=160, iq_size=128,
                           lsq_size=64, l2_size_kb=4096, l2_latency=8,
                           il1_size_kb=64, dl1_size_kb=64, dl1_latency=1)
    return [
        ("gcc-baseline", "gcc", baseline_config()),
        ("mcf-weak", "mcf", weak),
        ("swim-strong", "swim", strong),
        ("mcf-dvm-tight", "mcf", baseline_config().with_dvm(True, 0.05)),
        ("gcc-dvm", "gcc", baseline_config().with_dvm(True, 0.3)),
    ]


def _digest(result) -> str:
    parts = []
    for name in STREAMS:
        arr = result.traces.get(name)
        if arr is None:
            arr = result.components[name]
        parts.append(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


#: The three ways a core can step: ``"python"`` — the list container
#: under CPython; ``"kernel-interp"`` — the array container stepped by
#: the uncompiled source; ``"kernel"`` — the array container compiled
#: by numba (skipped where numba is absent).
MODES = ("python", "kernel-interp", "kernel")

#: The array mode the numba leg compiles and other legs interpret.
ARRAY_MODE = "kernel" if jit.jit_available() else "kernel-interp"


def _use_modes(monkeypatch, *modes):
    """Allow ``modes`` in this test (skipping ``"kernel"`` without
    numba) and return a switch that builds every new core's state in
    one of them."""
    if "kernel" in modes and not jit.jit_available():
        pytest.skip("numba not installed")
    if "kernel-interp" in modes:
        monkeypatch.setattr(pipeline_kernel, "compiled_step", lambda: False)

    def switch(mode):
        monkeypatch.setattr("repro.uarch.pipeline.jit_enabled",
                            lambda: mode != "python")

    return switch


def _use_mode(monkeypatch, mode):
    _use_modes(monkeypatch, mode)(mode)


def _run_case(bench, config, **kwargs):
    return DetailedSimulator(config).run(
        bench, n_samples=N_SAMPLES, instructions_per_sample=IPS, **kwargs)


# ----------------------------------------------------------------------
# Golden digests per container
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_interpreter_matches_goldens(monkeypatch, label, bench, config):
    """The interpreted kernel: lists resident between intervals."""
    _use_mode(monkeypatch, "python")
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_kernel_matches_goldens_uncompiled(monkeypatch, label, bench, config):
    """The compiled leg's array container, stepped by the same source
    uncompiled — checked without numba."""
    _use_mode(monkeypatch, "kernel-interp")
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


@pytest.mark.skipif(not jit.jit_available(), reason="numba not installed")
@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_kernel_matches_goldens_compiled(monkeypatch, label, bench, config):
    _use_mode(monkeypatch, "kernel")
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


def test_jit_on_off_parity():
    """Digest invariant under the JIT setting, whatever numba's state.

    With numba absent a requested JIT silently falls back to the
    interpreted kernel; with numba present (CI's with-numba leg) new
    cores get the compiled kernel — either way the streams must not
    move.
    """
    label, bench, config = golden_cases()[0]
    try:
        jit.set_jit(False)
        off = _digest(_run_case(bench, config))
        jit.set_jit(True)
        on = _digest(_run_case(bench, config))
    finally:
        jit.set_jit(None)
    assert off == on == GOLDEN_DIGESTS[label]


# ----------------------------------------------------------------------
# Snapshot round-trips across containers
# ----------------------------------------------------------------------
def _interval_signature(stats):
    return (stats.cycles, stats.branch_mispredicts,
            stats.dvm_throttled_cycles, tuple(stats.counters.items()),
            tuple(stats.ace_bit_cycles.items()))


def _core_with_dvm(mode="python"):
    core = OutOfOrderCore(baseline_config(),
                          dvm=DVMController(DVMPolicy(threshold=0.3)))
    core.state = KernelState(core.config, compiled=mode != "python")
    return core


def _run_intervals(core, lo, hi):
    workload = get_benchmark("gcc")
    return [
        _interval_signature(core.run_interval(
            synthesize_interval(workload, i, N_SAMPLES, IPS)))
        for i in range(lo, hi)
    ]


def test_alternating_engines_bit_identical(monkeypatch):
    """Moving the core between the list and array containers through
    the canonical snapshot before every interval changes nothing."""
    _use_modes(monkeypatch, "python", ARRAY_MODE)
    reference = _run_intervals(_core_with_dvm(), 0, N_SAMPLES)
    core = _core_with_dvm()
    mixed = []
    for i in range(N_SAMPLES):
        moved = _core_with_dvm(("python", ARRAY_MODE)[i % 2])
        moved.restore_state(core.snapshot_state())
        core = moved
        mixed += _run_intervals(core, i, i + 1)
    assert mixed == reference


@pytest.mark.parametrize("first_engine,second_engine",
                         [("kernel-interp", "python"),
                          ("python", "kernel-interp"),
                          ("kernel", "python"),
                          ("python", "kernel")])
def test_snapshot_round_trip_across_engines(monkeypatch, first_engine,
                                            second_engine):
    _use_modes(monkeypatch, first_engine, second_engine)
    reference = _run_intervals(_core_with_dvm(), 0, N_SAMPLES)
    core = _core_with_dvm(first_engine)
    head = _run_intervals(core, 0, 4)
    snapshot = core.snapshot_state()
    resumed = _core_with_dvm(second_engine)
    resumed.restore_state(snapshot)
    tail = _run_intervals(resumed, 4, N_SAMPLES)
    assert head == reference[:4]
    assert tail == reference[4:]


def test_list_and_array_snapshots_identical(monkeypatch):
    _use_modes(monkeypatch, "python", ARRAY_MODE)
    cores = [_core_with_dvm(mode) for mode in ("python", ARRAY_MODE)]
    for core in cores:
        _run_intervals(core, 0, 4)
    from_lists, from_arrays = (core.snapshot_state() for core in cores)
    assert set(from_lists) == set(from_arrays)
    for key in from_lists:
        assert from_lists[key].dtype == from_arrays[key].dtype, key
        assert np.array_equal(from_lists[key], from_arrays[key]), key


def test_restore_rejects_mismatched_shapes():
    snapshot = OutOfOrderCore(baseline_config()).snapshot_state()
    small = MachineConfig(il1_size_kb=8, dl1_size_kb=8)
    with pytest.raises(SimulationError, match="does not match"):
        OutOfOrderCore(small).restore_state(snapshot)


# ----------------------------------------------------------------------
# Checkpointing on the array snapshot (format v2)
# ----------------------------------------------------------------------
class _Crash(Exception):
    pass


def _crashing_run(monkeypatch, bench, config, path, crash_after):
    """Run with checkpointing, crashing after N intervals; returns
    without the crash propagating."""
    original = OutOfOrderCore.run_interval
    calls = [0]

    def wrapper(self, trace, _original=original):
        calls[0] += 1
        if calls[0] > crash_after:
            raise _Crash()
        return _original(self, trace)

    monkeypatch.setattr(OutOfOrderCore, "run_interval", wrapper)
    with pytest.raises(_Crash):
        _run_case(bench, config, checkpoint_every=3, checkpoint_path=path)
    monkeypatch.setattr(OutOfOrderCore, "run_interval", original)


@pytest.mark.parametrize("crash_engine,resume_engine",
                         [("python", "python"),
                          ("kernel-interp", "python"),
                          ("python", "kernel-interp"),
                          ("kernel", "python"),
                          ("python", "kernel")])
def test_checkpoint_resume_mid_run(monkeypatch, tmp_path,
                                   crash_engine, resume_engine):
    """A crashed run resumes bit-identically — in either container, from
    a snapshot written by either (DVM controller state included);
    compiled <-> interpreted in the numba leg."""
    switch = _use_modes(monkeypatch, crash_engine, resume_engine)
    label, bench, config = golden_cases()[4]  # gcc-dvm
    path = tmp_path / "run.ckpt.npz"
    # Warmup + intervals 0..3 simulate; snapshot lands at next=3.
    switch(crash_engine)
    _crashing_run(monkeypatch, bench, config, path, crash_after=5)
    assert path.exists()

    switch(resume_engine)
    calls = [0]
    original = OutOfOrderCore.run_interval

    def counting(self, trace, _original=original):
        calls[0] += 1
        return _original(self, trace)

    monkeypatch.setattr(OutOfOrderCore, "run_interval", counting)
    result = _run_case(bench, config, checkpoint_every=3,
                       checkpoint_path=path)
    assert _digest(result) == GOLDEN_DIGESTS[label]
    assert calls[0] == N_SAMPLES - 3   # no warmup, intervals 3..7 only
    assert not path.exists()           # completed runs remove the snapshot


def test_v1_checkpoint_invalidated_not_resumed(tmp_path):
    """A pre-v2 snapshot (pickled core, no ``state_version``) is deleted
    and the run starts cleanly from interval 0."""
    label, bench, config = golden_cases()[0]
    path = tmp_path / "run.ckpt.npz"
    np.savez(path, meta=np.array("ckpt/v1-era digest"), next=np.array(4),
             core=np.zeros(64, dtype=np.uint8))
    result = _run_case(bench, config, checkpoint_every=3,
                       checkpoint_path=path)
    assert _digest(result) == GOLDEN_DIGESTS[label]
    assert not path.exists()


def test_sweep_checkpoints_removes_only_orphans(tmp_path):
    keep = tmp_path / "fresh.ckpt.npz"
    np.savez(keep, meta=np.array("m"), next=np.array(1),
             state_version=np.array(CHECKPOINT_VERSION))
    np.savez(tmp_path / "v1.ckpt.npz", meta=np.array("m"), next=np.array(1),
             core=np.zeros(8, dtype=np.uint8))
    (tmp_path / "crashed.tmp").write_bytes(b"partial write")
    (tmp_path / "corrupt.ckpt.npz").write_bytes(b"not a zip archive")
    ancient = tmp_path / "ancient.ckpt.npz"
    np.savez(ancient, meta=np.array("m"), next=np.array(1),
             state_version=np.array(CHECKPOINT_VERSION))
    stale_time = time.time() - 8 * 24 * 3600
    os.utime(ancient, (stale_time, stale_time))
    (tmp_path / "unrelated.txt").write_text("not a checkpoint")

    removed, reclaimed = sweep_checkpoints(tmp_path)
    assert removed == 4
    assert reclaimed > 0
    survivors = sorted(p.name for p in tmp_path.iterdir())
    assert survivors == ["fresh.ckpt.npz", "unrelated.txt"]
    assert sweep_checkpoints(tmp_path) == (0, 0)
    assert sweep_checkpoints(tmp_path / "missing") == (0, 0)


# ----------------------------------------------------------------------
# Trace memo
# ----------------------------------------------------------------------
def test_trace_memo_shares_frozen_traces():
    clear_trace_memo()
    workload = get_benchmark("gcc")
    first = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    second = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    assert second is first
    assert not first.op.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        first.address[0] = 1


def test_trace_memo_keys_on_content_and_arguments():
    clear_trace_memo()
    workload = get_benchmark("gcc")
    base = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    assert synthesize_interval(workload, 1, N_SAMPLES, IPS) is not base
    assert synthesize_interval(workload, 0, N_SAMPLES, IPS,
                               seed=123) is not base
    other = get_benchmark("mcf")
    assert synthesize_interval(other, 0, N_SAMPLES, IPS) is not base


def test_trace_memo_disable(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_MEMO", "0")
    clear_trace_memo()
    workload = get_benchmark("gcc")
    first = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    second = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    assert second is not first
    assert first.op.flags.writeable
    for name in ("op", "src1_dist", "src2_dist", "address", "pc",
                 "taken", "ace"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
