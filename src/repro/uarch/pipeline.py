"""Cycle-level out-of-order pipeline model.

A trace-driven superscalar core with the Table 1 organization: wide
fetch with gshare/BTB and IL1 bubbles, register renaming implied by
dependence distances, a unified issue queue with wakeup/select, a
load/store queue, per-class functional units, a reorder buffer with
in-order commit, and miss-driven back-pressure through the two-level
cache hierarchy.

The model is *trace-driven*: mispredicted branches charge a front-end
redirect penalty (fetch resumes ``pipeline_depth`` cycles after the
branch resolves) rather than executing wrong-path instructions — the
standard trace-driven approximation.

Per-cycle ACE-bit residency counters implement the Mukherjee AVF
methodology exactly; per-structure event counters feed the Wattch power
model.  The optional :class:`~repro.reliability.dvm.DVMController`
gates dispatch per the paper's Figure 16 pseudocode.

The semantics are written once, in
:func:`repro.uarch.pipeline_kernel.step_interval`, and run over one of
two containers: numpy arrays compiled with numba when
:func:`~repro.uarch.jit.jit_enabled` holds as the core is built, and
resident Python lists under CPython otherwise.  Both produce identical
cycle / counter / ACE / mispredict / throttle streams
(``tests/test_detailed_kernel.py`` pins golden sha256 digests).  A core
keeps its container for life; the canonical snapshot
(:meth:`OutOfOrderCore.snapshot_state`), which is also what detailed
checkpointing persists, is how state moves between the two.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.reliability.dvm import DVMController
from repro.uarch.jit import jit_enabled
from repro.uarch.params import MachineConfig
from repro.uarch.pipeline_kernel import (SNAPSHOT_INT_FIELDS, IntervalStats,
                                         KernelState, run_interval_on_state)
from repro.uarch.trace import InstructionTrace


class OutOfOrderCore:
    """The detailed core; state (caches, predictor) persists across
    intervals so later intervals see warmed structures, like the paper's
    contiguous 200M-instruction simulations.

    Producer completion times are tracked *per interval*: every
    instruction of an interval commits before the next interval starts,
    so a producer from an earlier interval is always complete by the
    time a consumer looks it up — cross-interval dependences are
    resolved dependences by construction.

    Construction rejects cache / predictor / BTB / TLB geometries the
    kernel cannot index (:class:`~repro.errors.ConfigurationError`).
    """

    def __init__(self, config: MachineConfig,
                 dvm: Optional[DVMController] = None):
        self.config = config
        self.dvm = dvm
        self._global_index = 0
        self._cycle = 0
        # DVM online-AVF bookkeeping.
        self._dvm_window_ace = 0.0
        self._dvm_window_cycles = 0
        self._dvm_sample_period = 200
        self._last_waiting = 0
        self._last_ready = 0
        #: The kernel's state containers (compiled arrays or lists).
        self.state = KernelState(config, compiled=jit_enabled())

    def run_interval(self, trace: InstructionTrace) -> IntervalStats:
        """Simulate one interval; returns its raw statistics."""
        return run_interval_on_state(self, self.state, trace)

    # ------------------------------------------------------------------
    # Canonical state snapshot (checkpoint format v2)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, np.ndarray]:
        """The core's microarchitectural state as plain numpy arrays.

        The canonical, container-independent representation: every
        cache / BTB set as its way tags in LRU order (oldest first,
        ``-1`` padding), TLBs as resident pages in LRU order, the gshare
        counter table, and two scalar vectors (``ints`` ordered per
        :data:`~repro.uarch.pipeline_kernel.SNAPSHOT_INT_FIELDS`,
        ``floats`` per
        :data:`~repro.uarch.pipeline_kernel.SNAPSHOT_FLOAT_FIELDS`).
        Checkpoint format v2 stores exactly these arrays (no pickling).
        """
        snap = self.state.export_structures()
        scalars = self.state.export_scalars()
        scalars.update({
            "global_index": self._global_index,
            "cycle": self._cycle,
            "dvm_window_cycles": self._dvm_window_cycles,
            "last_waiting": self._last_waiting,
            "last_ready": self._last_ready,
            "dvm_trigger_count": (self.dvm.trigger_count if self.dvm else 0),
            "dvm_sample_count": (self.dvm.sample_count if self.dvm else 0),
            "has_dvm": int(self.dvm is not None),
        })
        snap["ints"] = np.array(
            [int(scalars[name]) for name in SNAPSHOT_INT_FIELDS],
            dtype=np.int64)
        snap["floats"] = np.array(
            [self._dvm_window_ace,
             (self.dvm.wq_ratio if self.dvm else 0.0)], dtype=np.float64)
        return snap

    def restore_state(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`snapshot_state` dict, keeping this core's
        container type."""
        self.state = KernelState(self.config, snapshot,
                                 compiled=self.state.compiled)
        ints = {name: int(value) for name, value in
                zip(SNAPSHOT_INT_FIELDS, np.asarray(snapshot["ints"]))}
        floats = np.asarray(snapshot["floats"], dtype=np.float64)
        self._global_index = ints["global_index"]
        self._cycle = ints["cycle"]
        self._dvm_window_cycles = ints["dvm_window_cycles"]
        self._last_waiting = ints["last_waiting"]
        self._last_ready = ints["last_ready"]
        self._dvm_window_ace = float(floats[0])
        if self.dvm is not None and ints["has_dvm"]:
            self.dvm.wq_ratio = float(floats[1])
            self.dvm.trigger_count = ints["dvm_trigger_count"]
            self.dvm.sample_count = ints["dvm_sample_count"]
