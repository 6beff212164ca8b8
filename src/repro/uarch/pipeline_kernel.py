"""The detailed out-of-order pipeline: one kernel source, two containers.

All microarchitectural state lives in flat, preallocated containers —

* circular ROB (parallel ``rob_*`` sequences indexed by slot) and an
  order-preserving issue-queue slot list compacted in place;
* set-associative caches / BTB / TLBs as flat ``tags`` + ``stamps``
  sequences (monotonic LRU stamps: the min-stamp way is the LRU
  victim, and a miss fills the first empty way, so sets never develop
  holes);
* the gshare counter table;
* per-interval producer completion times in caller-supplied scratch
  (every instruction of an interval commits before the next interval
  starts, so cross-interval producers are complete by construction);
* outstanding L2 misses in a bounded buffer (an outstanding miss pins
  its load in the LSQ, so occupancy is bounded by ``lsq_size``);

— so :func:`step_interval` advances one whole interval in a single
call.  Its body is plain scalar code that only indexes its arguments
and takes their ``len()``, so the same source runs over either
container:

* **compiled** — numpy arrays, ``numba.njit`` via
  :func:`repro.uarch.jit.compile_njit` (no ``fastmath``, strict IEEE
  ordering); a detailed group stacks its members' arrays in
  :class:`BatchKernelState` and steps them through one ``prange`` call
  (:mod:`repro.uarch._pipeline_batch_numba`);
* **interpreted** — plain Python lists under CPython, held resident
  in :class:`KernelState` between intervals (list indexing is what
  keeps uncompiled stepping cheap; numpy scalar indexing is not).

Which container a core uses follows :func:`repro.uarch.jit.jit_enabled`
when its state is built; the two produce bit-identical cycle / counter
/ ACE / mispredict / throttle streams (golden digests pinned in
``tests/test_detailed_kernel.py``).  :class:`KernelState` converts
to/from the canonical snapshot format of
:meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state` (per-set way
tags in LRU order), which is also checkpoint format v2 — and the only
way a core moves between the two containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro._validation import is_power_of_two
from repro.errors import ConfigurationError, SimulationError
from repro.reliability.avf import STRUCTURE_BITS
from repro.uarch.jit import compile_njit
from repro.uarch.params import MachineConfig

#: Safety valve: abort an interval that exceeds this many cycles per
#: instruction (indicates a deadlocked model, which is a bug).
MAX_CPI = 400

#: Wattch counter names, in the order the counters dict is assembled.
COUNTER_KEYS = ("fetch_il1", "rename", "issue_queue", "rob", "regfile",
                "alu_int", "alu_fp", "lsq", "dl1", "l2", "instructions")

#: Scalar integer state captured by
#: :meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state`.
SNAPSHOT_INT_FIELDS = (
    "global_index", "cycle",
    "il1_hits", "il1_misses", "dl1_hits", "dl1_misses",
    "l2_hits", "l2_misses", "itlb_hits", "itlb_misses",
    "dtlb_hits", "dtlb_misses", "btb_hits", "btb_misses",
    "gshare_history", "gshare_lookups", "gshare_mispredicts",
    "dvm_window_cycles", "last_waiting", "last_ready",
    "dvm_trigger_count", "dvm_sample_count", "has_dvm",
)

#: Scalar float state captured by
#: :meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state`.
SNAPSHOT_FLOAT_FIELDS = ("dvm_window_ace", "wq_ratio")


@dataclass
class IntervalStats:
    """Raw statistics for one simulated trace interval."""

    instructions: int = 0
    cycles: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    ace_bit_cycles: Dict[str, float] = field(default_factory=dict)
    branch_mispredicts: int = 0
    dvm_throttled_cycles: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        if self.instructions == 0:
            raise SimulationError("interval committed no instructions")
        return self.cycles / self.instructions

# ----------------------------------------------------------------------
# Packed-argument layouts (module-level ints are compile-time constants
# for numba).
# ----------------------------------------------------------------------

# cfg_i: int64 configuration vector.
CFG_FETCH_WIDTH = 0
CFG_ROB_SIZE = 1
CFG_IQ_SIZE = 2
CFG_LSQ_SIZE = 3
CFG_INT_ALU = 4
CFG_FP_ALU = 5
CFG_MEM_PORTS = 6
CFG_IL1_LINE_BYTES = 7
CFG_DL1_LATENCY = 8
CFG_L2_LATENCY = 9
CFG_MEMORY_LATENCY = 10
CFG_TLB_MISS_LATENCY = 11
CFG_PIPELINE_DEPTH = 12
CFG_IL1_SET_MASK = 13
CFG_IL1_LINE_SHIFT = 14
CFG_IL1_ASSOC = 15
CFG_DL1_SET_MASK = 16
CFG_DL1_LINE_SHIFT = 17
CFG_DL1_ASSOC = 18
CFG_L2_SET_MASK = 19
CFG_L2_LINE_SHIFT = 20
CFG_L2_ASSOC = 21
CFG_BTB_N_SETS = 22
CFG_BTB_ASSOC = 23
CFG_GSHARE_MASK = 24
CFG_GSHARE_HISTORY_MASK = 25
CFG_DVM_ENABLED = 26
CFG_DVM_SAMPLE_PERIOD = 27
CFG_MAX_CPI = 28
N_CFG_I = 29

# cfg_f: float64 configuration vector.
CFGF_BITS_IQ = 0
CFGF_BITS_ROB = 1
CFGF_BITS_LSQ = 2
CFGF_BITS_REGFILE = 3
CFGF_DVM_THRESHOLD = 4
CFGF_WQ_INCREASE = 5
CFGF_WQ_DECREASE = 6
CFGF_WQ_MAX = 7
N_CFG_F = 8

# sc: int64 mutable scalar state (persistent between intervals).
SC_CYCLE = 0
SC_IL1_HITS = 1
SC_IL1_MISSES = 2
SC_DL1_HITS = 3
SC_DL1_MISSES = 4
SC_L2_HITS = 5
SC_L2_MISSES = 6
SC_ITLB_HITS = 7
SC_ITLB_MISSES = 8
SC_DTLB_HITS = 9
SC_DTLB_MISSES = 10
SC_BTB_HITS = 11
SC_BTB_MISSES = 12
SC_GSHARE_HISTORY = 13
SC_GSHARE_LOOKUPS = 14
SC_GSHARE_MISPREDICTS = 15
SC_IL1_STAMP = 16
SC_DL1_STAMP = 17
SC_L2_STAMP = 18
SC_BTB_STAMP = 19
SC_ITLB_STAMP = 20
SC_DTLB_STAMP = 21
SC_DVM_WINDOW_CYCLES = 22
SC_LAST_WAITING = 23
SC_LAST_READY = 24
SC_DVM_TRIGGERS = 25
SC_DVM_SAMPLES = 26
N_SC = 27

#: ``sc`` slots that :class:`KernelState` loads from and exports to the
#: snapshot's ``ints`` vector (the structure hit/miss totals and the
#: gshare history; the core object owns the rest of ``ints``).
_SC_SNAPSHOT_FIELDS = (
    (SC_IL1_HITS, "il1_hits"), (SC_IL1_MISSES, "il1_misses"),
    (SC_DL1_HITS, "dl1_hits"), (SC_DL1_MISSES, "dl1_misses"),
    (SC_L2_HITS, "l2_hits"), (SC_L2_MISSES, "l2_misses"),
    (SC_ITLB_HITS, "itlb_hits"), (SC_ITLB_MISSES, "itlb_misses"),
    (SC_DTLB_HITS, "dtlb_hits"), (SC_DTLB_MISSES, "dtlb_misses"),
    (SC_BTB_HITS, "btb_hits"), (SC_BTB_MISSES, "btb_misses"),
    (SC_GSHARE_HISTORY, "gshare_history"),
    (SC_GSHARE_LOOKUPS, "gshare_lookups"),
    (SC_GSHARE_MISPREDICTS, "gshare_mispredicts"),
)

# fc: float64 mutable scalar state.
FC_DVM_WINDOW_ACE = 0
FC_WQ_RATIO = 1
N_FC = 2

# out_ints layout.
OI_MISPREDICTS = 0
OI_THROTTLED = 1
OI_STATUS = 2          # 0 = ok, 1 = deadlock (> MAX_CPI cycles/inst)
N_OI = 3

# out_counters layout — must match COUNTER_KEYS order.
CTR_FETCH_IL1 = 0
CTR_RENAME = 1
CTR_ISSUE_QUEUE = 2
CTR_ROB = 3
CTR_REGFILE = 4
CTR_ALU_INT = 5
CTR_ALU_FP = 6
CTR_LSQ = 7
CTR_DL1 = 8
CTR_L2 = 9
CTR_INSTRUCTIONS = 10
N_CTR = 11

# out_ace layout: iq, rob, lsq, regfile.
ACE_IQ = 0
ACE_ROB = 1
ACE_LSQ = 2
ACE_REGFILE = 3
N_ACE = 4

#: TLB page shift (4 KB pages).
_PAGE_SHIFT = 12


def step_interval(t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
                  cfg_i, cfg_f,
                  il1_tags, il1_stamps, dl1_tags, dl1_stamps,
                  l2_tags, l2_stamps, btb_tags, btb_stamps,
                  itlb_pages, itlb_stamps, dtlb_pages, dtlb_stamps,
                  gshare_counters,
                  rob_local, rob_op, rob_ace, rob_ismem, rob_issued,
                  rob_ready, rob_misp, iq_slots, miss_until,
                  comp_cycle, comp_issued, fu_free,
                  sc, fc, out_counters, out_ace, out_ints):
    """Advance one interval over the state containers; the njit-able body.

    Every argument is indexed and measured with ``len()`` only, so the
    body runs unchanged over numpy arrays (compiled) and Python lists
    (interpreted).  Each cycle runs commit, issue, dispatch, fetch, AVF
    residency and DVM sampling, in that order.  The five inlined
    tags/stamps blocks implement true-LRU set lookup: a hit refreshes
    the way's stamp, a miss fills the first empty way or else evicts
    the min-stamp (least recently used) way.

    ``comp_cycle`` / ``comp_issued`` (at least ``len(t_op)`` zeros) and
    ``fu_free`` (5 slots) are per-call scratch supplied by the caller in
    the state's own container type.
    """
    n = len(t_op)

    fetch_width = cfg_i[CFG_FETCH_WIDTH]
    rob_size = cfg_i[CFG_ROB_SIZE]
    iq_size = cfg_i[CFG_IQ_SIZE]
    lsq_size = cfg_i[CFG_LSQ_SIZE]
    n_int_alu = cfg_i[CFG_INT_ALU]
    n_fp_alu = cfg_i[CFG_FP_ALU]
    n_mem_ports = cfg_i[CFG_MEM_PORTS]
    il1_line_bytes = cfg_i[CFG_IL1_LINE_BYTES]
    dl1_latency = cfg_i[CFG_DL1_LATENCY]
    l2_latency = cfg_i[CFG_L2_LATENCY]
    memory_latency = cfg_i[CFG_MEMORY_LATENCY]
    tlb_miss_latency = cfg_i[CFG_TLB_MISS_LATENCY]
    depth = cfg_i[CFG_PIPELINE_DEPTH]
    il1_set_mask = cfg_i[CFG_IL1_SET_MASK]
    il1_shift = cfg_i[CFG_IL1_LINE_SHIFT]
    il1_assoc = cfg_i[CFG_IL1_ASSOC]
    dl1_set_mask = cfg_i[CFG_DL1_SET_MASK]
    dl1_shift = cfg_i[CFG_DL1_LINE_SHIFT]
    dl1_assoc = cfg_i[CFG_DL1_ASSOC]
    l2_set_mask = cfg_i[CFG_L2_SET_MASK]
    l2_shift = cfg_i[CFG_L2_LINE_SHIFT]
    l2_assoc = cfg_i[CFG_L2_ASSOC]
    btb_n_sets = cfg_i[CFG_BTB_N_SETS]
    btb_assoc = cfg_i[CFG_BTB_ASSOC]
    gshare_mask = cfg_i[CFG_GSHARE_MASK]
    history_mask = cfg_i[CFG_GSHARE_HISTORY_MASK]
    dvm_enabled = cfg_i[CFG_DVM_ENABLED]
    dvm_sample_period = cfg_i[CFG_DVM_SAMPLE_PERIOD]
    max_cpi = cfg_i[CFG_MAX_CPI]

    bits_iq = cfg_f[CFGF_BITS_IQ]
    bits_rob = cfg_f[CFGF_BITS_ROB]
    bits_lsq = cfg_f[CFGF_BITS_LSQ]
    bits_regfile = cfg_f[CFGF_BITS_REGFILE]
    dvm_threshold = cfg_f[CFGF_DVM_THRESHOLD]
    wq_increase = cfg_f[CFGF_WQ_INCREASE]
    wq_decrease = cfg_f[CFGF_WQ_DECREASE]
    wq_max = cfg_f[CFGF_WQ_MAX]

    il1_stamp = sc[SC_IL1_STAMP]
    dl1_stamp = sc[SC_DL1_STAMP]
    l2_stamp = sc[SC_L2_STAMP]
    btb_stamp = sc[SC_BTB_STAMP]
    itlb_stamp = sc[SC_ITLB_STAMP]
    dtlb_stamp = sc[SC_DTLB_STAMP]
    itlb_entries = len(itlb_pages)
    dtlb_entries = len(dtlb_pages)
    history = sc[SC_GSHARE_HISTORY]

    c_fetch_il1 = 0.0
    c_rename = 0.0
    c_issue_queue = 0.0
    c_rob = 0.0
    c_regfile = 0.0
    c_alu_int = 0.0
    c_alu_fp = 0.0
    c_lsq = 0.0
    c_dl1 = 0.0
    c_l2 = 0.0
    c_instructions = 0.0
    a_iq = 0.0
    a_rob = 0.0
    a_lsq = 0.0
    a_regfile = 0.0

    rob_head = 0
    rob_count = 0
    iq_n = 0
    miss_count = 0
    lsq_count = 0
    iq_ace = 0
    rob_ace_total = 0
    lsq_ace = 0
    fetch_ptr = 0
    dispatch_ptr = 0
    fetch_stall_until = 0
    last_fetch_line = -1
    start_cycle = sc[SC_CYCLE]
    cycle = start_cycle
    committed = 0
    mispredicts = 0
    throttled_cycles = 0
    waiting = sc[SC_LAST_WAITING]
    ready_count = sc[SC_LAST_READY]
    dvm_window_ace = fc[FC_DVM_WINDOW_ACE]
    dvm_window_cycles = sc[SC_DVM_WINDOW_CYCLES]
    wq_ratio = fc[FC_WQ_RATIO]
    dvm_triggers = sc[SC_DVM_TRIGGERS]
    dvm_samples = sc[SC_DVM_SAMPLES]
    limit = n * max_cpi
    if limit < 10000:
        limit = 10000
    max_cycles = start_cycle + limit

    while committed < n:
        cycle += 1
        if cycle > max_cycles:
            out_ints[OI_STATUS] = 1
            return

        # ---------------- commit -------------------------------------
        commits = 0
        while rob_count > 0 and commits < fetch_width:
            slot = rob_head
            if rob_issued[slot] == 0 or rob_ready[slot] > cycle:
                break
            rob_head += 1
            if rob_head == rob_size:
                rob_head = 0
            rob_count -= 1
            ace = rob_ace[slot]
            rob_ace_total -= ace
            if rob_ismem[slot] == 1:
                lsq_count -= 1
                lsq_ace -= ace
            if rob_misp[slot] == 1:
                mispredicts += 1
            commits += 1
            committed += 1
            c_rob += 1.0
            c_instructions += 1.0

        # ---------------- issue --------------------------------------
        keep = 0
        for j in range(miss_count):
            if miss_until[j] > cycle:
                miss_until[keep] = miss_until[j]
                keep += 1
        miss_count = keep
        # Independent per-class FU budgets indexed by op value
        # (INT_ALU, FP_ALU, LOAD, STORE, BRANCH).
        fu_free[0] = n_int_alu
        fu_free[1] = n_fp_alu
        fu_free[2] = n_mem_ports
        fu_free[3] = n_mem_ports
        fu_free[4] = n_int_alu
        issued = 0
        ready_count = 0
        write = 0
        for j in range(iq_n):
            slot = iq_slots[j]
            if issued >= fetch_width:
                iq_slots[write] = slot
                write += 1
                continue
            li = rob_local[slot]
            src_ready = True
            dist = t_src1[li]
            if dist > 0:
                producer = li - dist
                if producer >= 0 and comp_issued[producer] == 1 \
                        and comp_cycle[producer] > cycle:
                    src_ready = False
            if src_ready:
                dist = t_src2[li]
                if dist > 0:
                    producer = li - dist
                    if producer >= 0 and comp_issued[producer] == 1 \
                            and comp_cycle[producer] > cycle:
                        src_ready = False
            if not src_ready:
                iq_slots[write] = slot
                write += 1
                continue
            ready_count += 1
            op = rob_op[slot]
            if fu_free[op] <= 0:
                iq_slots[write] = slot
                write += 1
                continue
            fu_free[op] -= 1
            if op == 0 or op == 3 or op == 4:
                latency = 1      # INT_ALU / STORE / BRANCH
            elif op == 1:
                latency = 4      # FP_ALU
            else:
                latency = 0      # LOAD: pure cache latency
            if op == 2:          # LOAD
                addr = t_addr[li]
                # dtlb ------------------------------------------------
                page = addr >> _PAGE_SHIFT
                tlb_hit = False
                empty = -1
                for w in range(dtlb_entries):
                    tag = dtlb_pages[w]
                    if tag == page:
                        dtlb_stamps[w] = dtlb_stamp
                        dtlb_stamp += 1
                        tlb_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if tlb_hit:
                    sc[SC_DTLB_HITS] += 1
                else:
                    if empty < 0:
                        victim = 0
                        best = dtlb_stamps[0]
                        for w in range(1, dtlb_entries):
                            if dtlb_stamps[w] < best:
                                best = dtlb_stamps[w]
                                victim = w
                        empty = victim
                    dtlb_pages[empty] = page
                    dtlb_stamps[empty] = dtlb_stamp
                    dtlb_stamp += 1
                    sc[SC_DTLB_MISSES] += 1
                # dl1 -------------------------------------------------
                line = addr >> dl1_shift
                base = (line & dl1_set_mask) * dl1_assoc
                dl1_hit = False
                empty = -1
                for w in range(dl1_assoc):
                    tag = dl1_tags[base + w]
                    if tag == line:
                        dl1_stamps[base + w] = dl1_stamp
                        dl1_stamp += 1
                        dl1_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if dl1_hit:
                    sc[SC_DL1_HITS] += 1
                    latency += dl1_latency
                    goes_to_memory = False
                else:
                    if empty < 0:
                        victim = 0
                        best = dl1_stamps[base]
                        for w in range(1, dl1_assoc):
                            if dl1_stamps[base + w] < best:
                                best = dl1_stamps[base + w]
                                victim = w
                        empty = victim
                    dl1_tags[base + empty] = line
                    dl1_stamps[base + empty] = dl1_stamp
                    dl1_stamp += 1
                    sc[SC_DL1_MISSES] += 1
                    # l2 ----------------------------------------------
                    l2_line = addr >> l2_shift
                    l2_base = (l2_line & l2_set_mask) * l2_assoc
                    l2_hit = False
                    empty = -1
                    for w in range(l2_assoc):
                        tag = l2_tags[l2_base + w]
                        if tag == l2_line:
                            l2_stamps[l2_base + w] = l2_stamp
                            l2_stamp += 1
                            l2_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if l2_hit:
                        sc[SC_L2_HITS] += 1
                        latency += dl1_latency + l2_latency
                    else:
                        if empty < 0:
                            victim = 0
                            best = l2_stamps[l2_base]
                            for w in range(1, l2_assoc):
                                if l2_stamps[l2_base + w] < best:
                                    best = l2_stamps[l2_base + w]
                                    victim = w
                            empty = victim
                        l2_tags[l2_base + empty] = l2_line
                        l2_stamps[l2_base + empty] = l2_stamp
                        l2_stamp += 1
                        sc[SC_L2_MISSES] += 1
                        latency += dl1_latency + l2_latency + memory_latency
                    goes_to_memory = not l2_hit
                if not tlb_hit:
                    latency += tlb_miss_latency
                c_dl1 += 1.0
                if not dl1_hit:
                    c_l2 += 1.0
                if goes_to_memory:
                    miss_until[miss_count] = cycle + latency
                    miss_count += 1
            elif op == 3:        # STORE: access side effects, fixed latency
                addr = t_addr[li]
                # dtlb ------------------------------------------------
                page = addr >> _PAGE_SHIFT
                tlb_hit = False
                empty = -1
                for w in range(dtlb_entries):
                    tag = dtlb_pages[w]
                    if tag == page:
                        dtlb_stamps[w] = dtlb_stamp
                        dtlb_stamp += 1
                        tlb_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if tlb_hit:
                    sc[SC_DTLB_HITS] += 1
                else:
                    if empty < 0:
                        victim = 0
                        best = dtlb_stamps[0]
                        for w in range(1, dtlb_entries):
                            if dtlb_stamps[w] < best:
                                best = dtlb_stamps[w]
                                victim = w
                        empty = victim
                    dtlb_pages[empty] = page
                    dtlb_stamps[empty] = dtlb_stamp
                    dtlb_stamp += 1
                    sc[SC_DTLB_MISSES] += 1
                # dl1 -------------------------------------------------
                line = addr >> dl1_shift
                base = (line & dl1_set_mask) * dl1_assoc
                dl1_hit = False
                empty = -1
                for w in range(dl1_assoc):
                    tag = dl1_tags[base + w]
                    if tag == line:
                        dl1_stamps[base + w] = dl1_stamp
                        dl1_stamp += 1
                        dl1_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if dl1_hit:
                    sc[SC_DL1_HITS] += 1
                else:
                    if empty < 0:
                        victim = 0
                        best = dl1_stamps[base]
                        for w in range(1, dl1_assoc):
                            if dl1_stamps[base + w] < best:
                                best = dl1_stamps[base + w]
                                victim = w
                        empty = victim
                    dl1_tags[base + empty] = line
                    dl1_stamps[base + empty] = dl1_stamp
                    dl1_stamp += 1
                    sc[SC_DL1_MISSES] += 1
                    # l2 ----------------------------------------------
                    l2_line = addr >> l2_shift
                    l2_base = (l2_line & l2_set_mask) * l2_assoc
                    l2_hit = False
                    empty = -1
                    for w in range(l2_assoc):
                        tag = l2_tags[l2_base + w]
                        if tag == l2_line:
                            l2_stamps[l2_base + w] = l2_stamp
                            l2_stamp += 1
                            l2_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if not l2_hit:
                        if empty < 0:
                            victim = 0
                            best = l2_stamps[l2_base]
                            for w in range(1, l2_assoc):
                                if l2_stamps[l2_base + w] < best:
                                    best = l2_stamps[l2_base + w]
                                    victim = w
                            empty = victim
                        l2_tags[l2_base + empty] = l2_line
                        l2_stamps[l2_base + empty] = l2_stamp
                        l2_stamp += 1
                        sc[SC_L2_MISSES] += 1
                    else:
                        sc[SC_L2_HITS] += 1
                c_dl1 += 1.0
                if not dl1_hit:
                    c_l2 += 1.0
                latency += 1     # stores retire from the LSQ post-commit
            elif op == 4:        # BRANCH
                pc = t_pc[li]
                taken = t_taken[li]
                idx = ((pc >> 2) ^ history) & gshare_mask
                counter = gshare_counters[idx]
                prediction = counter >= 2
                if taken == 1 and counter < 3:
                    gshare_counters[idx] = counter + 1
                elif taken == 0 and counter > 0:
                    gshare_counters[idx] = counter - 1
                history = ((history << 1) | taken) & history_mask
                sc[SC_GSHARE_LOOKUPS] += 1
                mispredicted = prediction != (taken == 1)
                if mispredicted:
                    sc[SC_GSHARE_MISPREDICTS] += 1
                if taken == 1:
                    btag = pc >> 2
                    bbase = (btag % btb_n_sets) * btb_assoc
                    btb_hit = False
                    empty = -1
                    for w in range(btb_assoc):
                        tag = btb_tags[bbase + w]
                        if tag == btag:
                            btb_stamps[bbase + w] = btb_stamp
                            btb_stamp += 1
                            btb_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if btb_hit:
                        sc[SC_BTB_HITS] += 1
                    else:
                        if empty < 0:
                            victim = 0
                            best = btb_stamps[bbase]
                            for w in range(1, btb_assoc):
                                if btb_stamps[bbase + w] < best:
                                    best = btb_stamps[bbase + w]
                                    victim = w
                            empty = victim
                        btb_tags[bbase + empty] = btag
                        btb_stamps[bbase + empty] = btb_stamp
                        btb_stamp += 1
                        sc[SC_BTB_MISSES] += 1
                if mispredicted:
                    rob_misp[slot] = 1
                    stall = cycle + latency + depth
                    if stall > fetch_stall_until:
                        fetch_stall_until = stall
            rob_issued[slot] = 1
            rob_ready[slot] = cycle + latency
            comp_issued[li] = 1
            comp_cycle[li] = cycle + latency
            issued += 1
            iq_ace -= rob_ace[slot]
            c_issue_queue += 1.0
            c_regfile += 2.0
            if op == 0 or op == 4:
                c_alu_int += 1.0
            elif op == 1:
                c_alu_fp += 1.0
            if rob_ismem[slot] == 1:
                c_lsq += 1.0
        iq_n = write
        if iq_n > ready_count:
            waiting = iq_n - ready_count
        else:
            waiting = 0

        # ---------------- dispatch -----------------------------------
        throttled = False
        if dvm_enabled == 1:
            if miss_count > 0:
                throttled = True
            elif ready_count <= 0:
                throttled = waiting > wq_ratio
            else:
                throttled = (waiting / ready_count) > wq_ratio
            if throttled:
                throttled_cycles += 1
        if not throttled:
            dispatched = 0
            while (dispatched < fetch_width and dispatch_ptr < fetch_ptr
                   and rob_count < rob_size and iq_n < iq_size):
                local = dispatch_ptr
                op = t_op[local]
                is_mem = op == 2 or op == 3
                if is_mem and lsq_count >= lsq_size:
                    break
                slot = rob_head + rob_count
                if slot >= rob_size:
                    slot -= rob_size
                ace = t_ace[local]
                rob_local[slot] = local
                rob_op[slot] = op
                rob_ace[slot] = ace
                rob_ismem[slot] = 1 if is_mem else 0
                rob_issued[slot] = 0
                rob_ready[slot] = 0
                rob_misp[slot] = 0
                iq_slots[iq_n] = slot
                iq_n += 1
                rob_count += 1
                rob_ace_total += ace
                iq_ace += ace
                if is_mem:
                    lsq_count += 1
                    lsq_ace += ace
                dispatch_ptr += 1
                dispatched += 1
                c_rename += 1.0
                c_rob += 1.0

        # ---------------- fetch --------------------------------------
        if cycle >= fetch_stall_until:
            fetched = 0
            while (fetched < fetch_width and fetch_ptr < n
                   and fetch_ptr - dispatch_ptr < 2 * fetch_width):
                line = t_pc[fetch_ptr] // il1_line_bytes
                if line != last_fetch_line:
                    addr = t_pc[fetch_ptr]
                    # itlb --------------------------------------------
                    page = addr >> _PAGE_SHIFT
                    tlb_hit = False
                    empty = -1
                    for w in range(itlb_entries):
                        tag = itlb_pages[w]
                        if tag == page:
                            itlb_stamps[w] = itlb_stamp
                            itlb_stamp += 1
                            tlb_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if tlb_hit:
                        sc[SC_ITLB_HITS] += 1
                    else:
                        if empty < 0:
                            victim = 0
                            best = itlb_stamps[0]
                            for w in range(1, itlb_entries):
                                if itlb_stamps[w] < best:
                                    best = itlb_stamps[w]
                                    victim = w
                            empty = victim
                        itlb_pages[empty] = page
                        itlb_stamps[empty] = itlb_stamp
                        itlb_stamp += 1
                        sc[SC_ITLB_MISSES] += 1
                    # il1 ---------------------------------------------
                    il1_line = addr >> il1_shift
                    base = (il1_line & il1_set_mask) * il1_assoc
                    il1_hit = False
                    empty = -1
                    for w in range(il1_assoc):
                        tag = il1_tags[base + w]
                        if tag == il1_line:
                            il1_stamps[base + w] = il1_stamp
                            il1_stamp += 1
                            il1_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    bubble = 0
                    if il1_hit:
                        sc[SC_IL1_HITS] += 1
                    else:
                        if empty < 0:
                            victim = 0
                            best = il1_stamps[base]
                            for w in range(1, il1_assoc):
                                if il1_stamps[base + w] < best:
                                    best = il1_stamps[base + w]
                                    victim = w
                            empty = victim
                        il1_tags[base + empty] = il1_line
                        il1_stamps[base + empty] = il1_stamp
                        il1_stamp += 1
                        sc[SC_IL1_MISSES] += 1
                        # l2 ------------------------------------------
                        l2_line = addr >> l2_shift
                        l2_base = (l2_line & l2_set_mask) * l2_assoc
                        l2_hit = False
                        empty = -1
                        for w in range(l2_assoc):
                            tag = l2_tags[l2_base + w]
                            if tag == l2_line:
                                l2_stamps[l2_base + w] = l2_stamp
                                l2_stamp += 1
                                l2_hit = True
                                break
                            if tag == -1 and empty < 0:
                                empty = w
                        if l2_hit:
                            sc[SC_L2_HITS] += 1
                            bubble = l2_latency
                        else:
                            if empty < 0:
                                victim = 0
                                best = l2_stamps[l2_base]
                                for w in range(1, l2_assoc):
                                    if l2_stamps[l2_base + w] < best:
                                        best = l2_stamps[l2_base + w]
                                        victim = w
                                empty = victim
                            l2_tags[l2_base + empty] = l2_line
                            l2_stamps[l2_base + empty] = l2_stamp
                            l2_stamp += 1
                            sc[SC_L2_MISSES] += 1
                            bubble = l2_latency + memory_latency
                    if not tlb_hit:
                        bubble += tlb_miss_latency
                    c_fetch_il1 += 1.0
                    last_fetch_line = line
                    if bubble > 0:
                        fetch_stall_until = cycle + bubble
                        break
                is_taken_branch = (t_op[fetch_ptr] == 4
                                   and t_taken[fetch_ptr] == 1)
                fetch_ptr += 1
                fetched += 1
                if is_taken_branch:
                    break  # taken branch ends the fetch block

        # ---------------- AVF residency ------------------------------
        a_iq += iq_ace * bits_iq
        a_rob += rob_ace_total * bits_rob
        a_lsq += lsq_ace * bits_lsq
        # Live architectural registers scale with in-flight window.
        a_regfile += (32 + 0.5 * rob_count) * bits_regfile * 0.45

        # ---------------- DVM sampling -------------------------------
        if dvm_enabled == 1:
            dvm_window_ace += iq_ace
            dvm_window_cycles += 1
            if dvm_window_cycles >= dvm_sample_period:
                online_avf = dvm_window_ace / (dvm_window_cycles * iq_size)
                dvm_samples += 1
                if online_avf > dvm_threshold:
                    wq_ratio = wq_ratio * wq_decrease
                    if wq_ratio < 0.25:
                        wq_ratio = 0.25
                    dvm_triggers += 1
                else:
                    wq_ratio = wq_ratio + wq_increase
                    if wq_ratio > wq_max:
                        wq_ratio = wq_max
                dvm_window_ace = 0.0
                dvm_window_cycles = 0

    sc[SC_CYCLE] = cycle
    sc[SC_GSHARE_HISTORY] = history
    sc[SC_IL1_STAMP] = il1_stamp
    sc[SC_DL1_STAMP] = dl1_stamp
    sc[SC_L2_STAMP] = l2_stamp
    sc[SC_BTB_STAMP] = btb_stamp
    sc[SC_ITLB_STAMP] = itlb_stamp
    sc[SC_DTLB_STAMP] = dtlb_stamp
    sc[SC_DVM_WINDOW_CYCLES] = dvm_window_cycles
    sc[SC_LAST_WAITING] = waiting
    sc[SC_LAST_READY] = ready_count
    sc[SC_DVM_TRIGGERS] = dvm_triggers
    sc[SC_DVM_SAMPLES] = dvm_samples
    fc[FC_DVM_WINDOW_ACE] = dvm_window_ace
    fc[FC_WQ_RATIO] = wq_ratio
    out_counters[CTR_FETCH_IL1] = c_fetch_il1
    out_counters[CTR_RENAME] = c_rename
    out_counters[CTR_ISSUE_QUEUE] = c_issue_queue
    out_counters[CTR_ROB] = c_rob
    out_counters[CTR_REGFILE] = c_regfile
    out_counters[CTR_ALU_INT] = c_alu_int
    out_counters[CTR_ALU_FP] = c_alu_fp
    out_counters[CTR_LSQ] = c_lsq
    out_counters[CTR_DL1] = c_dl1
    out_counters[CTR_L2] = c_l2
    out_counters[CTR_INSTRUCTIONS] = c_instructions
    out_ace[ACE_IQ] = a_iq
    out_ace[ACE_ROB] = a_rob
    out_ace[ACE_LSQ] = a_lsq
    out_ace[ACE_REGFILE] = a_regfile
    out_ints[OI_MISPREDICTS] = mispredicts
    out_ints[OI_THROTTLED] = throttled_cycles
    out_ints[OI_STATUS] = 0
    return


def compiled_step():
    """The njit-compiled :func:`step_interval` (``False`` if no numba)."""
    return compile_njit(step_interval)


def _cache_geometry(name: str, size_kb: int, assoc: int, line_bytes: int):
    """``(n_sets, set_mask, line_shift)`` of a true-LRU cache, rejecting
    geometries the kernel's set-index mask cannot address."""
    if size_kb <= 0 or assoc <= 0 or line_bytes <= 0:
        raise ConfigurationError(f"{name}: size/assoc/line must be positive")
    total_lines = size_kb * 1024 // line_bytes
    if total_lines < assoc:
        raise ConfigurationError(
            f"{name}: capacity {size_kb}KB too small for "
            f"{assoc}-way associativity at {line_bytes}B lines"
        )
    n_sets = total_lines // assoc
    if not is_power_of_two(n_sets):
        raise ConfigurationError(
            f"{name}: set count {n_sets} is not a power of two")
    return n_sets, n_sets - 1, line_bytes.bit_length() - 1


def _check_front_end(config: MachineConfig) -> None:
    """Reject predictor / BTB / TLB sizes the kernel cannot index."""
    entries = config.branch_predictor_entries
    if entries <= 0 or (entries & (entries - 1)):
        raise ConfigurationError(
            f"gshare entries must be a positive power of two, got {entries}")
    if not 0 < config.branch_history_bits <= 20:
        raise ConfigurationError(
            f"history_bits must be in (0, 20], got "
            f"{config.branch_history_bits}")
    if config.btb_entries <= 0 or config.btb_entries % config.btb_assoc:
        raise ConfigurationError(
            f"BTB entries ({config.btb_entries}) must be a positive "
            f"multiple of assoc ({config.btb_assoc})")
    for name, tlb_entries in (("itlb", config.itlb_entries),
                              ("dtlb", config.dtlb_entries)):
        if tlb_entries <= 0:
            raise ConfigurationError(f"{name}: entries must be positive")


def _snapshot_table(snapshot, key: str, shape) -> np.ndarray:
    """``snapshot[key]`` as int64, checked against this core's geometry."""
    table = np.asarray(snapshot[key], dtype=np.int64)
    if table.shape != shape:
        raise SimulationError(
            f"snapshot {key} shape {table.shape} does not match the "
            f"configuration {shape}")
    return table


def _fill_from_lru(table: np.ndarray, tags: np.ndarray,
                   stamps: np.ndarray, assoc: int) -> int:
    """Load canonical LRU rows into tag/stamp arrays; returns the next
    free stamp.  Oldest entries get the smallest stamps, preserving the
    per-set recency order; all future stamps sort after all loaded
    ones."""
    next_stamp = 0
    for index in range(table.shape[0]):
        base = index * assoc
        for way in range(assoc):
            tag = int(table[index, way])
            if tag == -1:
                continue
            tags[base + way] = tag
            stamps[base + way] = next_stamp
            next_stamp += 1
    return next_stamp


def _lru_rows(tags, stamps, n_sets: int, assoc: int) -> np.ndarray:
    """Canonical LRU table (oldest-first rows) from tag/stamp sequences."""
    table = np.full((n_sets, assoc), -1, dtype=np.int64)
    for index in range(n_sets):
        base = index * assoc
        pairs = sorted(
            (int(stamps[base + way]), int(tags[base + way]))
            for way in range(assoc) if tags[base + way] != -1
        )
        for slot, (_, tag) in enumerate(pairs):
            table[index, slot] = tag
    return table


# Columns of the per-core extent matrix ``BatchKernelState.lens``: the
# compiled batch loop slices each stacked row back to its core's extent.
LEN_IL1 = 0
LEN_DL1 = 1
LEN_L2 = 2
LEN_BTB = 3
LEN_ITLB = 4
LEN_DTLB = 5
LEN_GSHARE = 6
LEN_ROB = 7
LEN_IQ = 8
LEN_MISS = 9
N_LEN = 10

#: Per-core state containers: (attribute, ``lens`` column, stacking
#: pad).  Converted to lists for the interpreted kernel, stacked into
#: ``(B, width)`` matrices by :class:`BatchKernelState`.  Tag/page rows
#: pad with -1 (an always-empty way) purely for debuggability.
_STATE_FIELDS = (
    ("il1_tags", LEN_IL1, -1), ("il1_stamps", LEN_IL1, 0),
    ("dl1_tags", LEN_DL1, -1), ("dl1_stamps", LEN_DL1, 0),
    ("l2_tags", LEN_L2, -1), ("l2_stamps", LEN_L2, 0),
    ("btb_tags", LEN_BTB, -1), ("btb_stamps", LEN_BTB, 0),
    ("itlb_pages", LEN_ITLB, -1), ("itlb_stamps", LEN_ITLB, 0),
    ("dtlb_pages", LEN_DTLB, -1), ("dtlb_stamps", LEN_DTLB, 0),
    ("gshare_counters", LEN_GSHARE, 0),
    ("rob_local", LEN_ROB, 0), ("rob_op", LEN_ROB, 0),
    ("rob_ace", LEN_ROB, 0), ("rob_ismem", LEN_ROB, 0),
    ("rob_issued", LEN_ROB, 0), ("rob_ready", LEN_ROB, 0),
    ("rob_misp", LEN_ROB, 0),
    ("iq_slots", LEN_IQ, 0), ("miss_until", LEN_MISS, 0),
    ("sc", None, 0), ("fc", None, 0), ("cfg_i", None, 0),
    ("cfg_f", None, 0),
)


class KernelState:
    """Persistent state containers for one :class:`OutOfOrderCore`.

    Built empty (a cold core) or from the canonical snapshot format —
    see :meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state` —
    and exportable back to it.  ``compiled`` fixes the container type
    for the state's lifetime: numpy arrays for the compiled kernel,
    Python lists for the interpreted one.  Cache-structure contents,
    hit/miss totals and the gshare scalars live *here*; DVM / cycle /
    interval scalars are copied in and out around every interval by
    :func:`run_interval_on_state` so the core object stays their
    authority.

    Construction validates the cache, predictor, BTB and TLB geometry
    (:class:`~repro.errors.ConfigurationError`): the kernel indexes sets
    with a bit mask, so e.g. a 12-set cache would silently alias.
    """

    def __init__(self, config: MachineConfig,
                 snapshot: Optional[Dict[str, np.ndarray]] = None,
                 compiled: bool = False):
        self.config = config
        self.compiled = compiled
        il1_sets, il1_mask, il1_shift = _cache_geometry(
            "il1", config.il1_size_kb, config.il1_assoc,
            config.il1_line_bytes)
        dl1_sets, dl1_mask, dl1_shift = _cache_geometry(
            "dl1", config.dl1_size_kb, config.dl1_assoc,
            config.dl1_line_bytes)
        l2_sets, l2_mask, l2_shift = _cache_geometry(
            "l2", config.l2_size_kb, config.l2_assoc, config.l2_line_bytes)
        _check_front_end(config)
        btb_sets = config.btb_entries // config.btb_assoc
        #: (name, tag attribute, n_sets, ways, stamp slot) per LRU
        #: structure; a TLB is a single fully-associative set whose
        #: snapshot is one row of resident pages.
        self._structures = (
            ("il1", "il1_tags", il1_sets, config.il1_assoc, SC_IL1_STAMP),
            ("dl1", "dl1_tags", dl1_sets, config.dl1_assoc, SC_DL1_STAMP),
            ("l2", "l2_tags", l2_sets, config.l2_assoc, SC_L2_STAMP),
            ("btb", "btb_tags", btb_sets, config.btb_assoc, SC_BTB_STAMP),
            ("itlb", "itlb_pages", 1, config.itlb_entries, SC_ITLB_STAMP),
            ("dtlb", "dtlb_pages", 1, config.dtlb_entries, SC_DTLB_STAMP),
        )

        self.sc = np.zeros(N_SC, dtype=np.int64)
        self.fc = np.zeros(N_FC, dtype=np.float64)
        for name, tag_attr, n_sets, ways, stamp_slot in self._structures:
            tags = np.full(n_sets * ways, -1, dtype=np.int64)
            stamps = np.zeros(n_sets * ways, dtype=np.int64)
            if snapshot is not None:
                shape = (ways,) if tag_attr.endswith("pages") \
                    else (n_sets, ways)
                table = _snapshot_table(snapshot, name + "_lru", shape)
                self.sc[stamp_slot] = _fill_from_lru(
                    table.reshape(n_sets, ways), tags, stamps, ways)
            setattr(self, tag_attr, tags)
            setattr(self, name + "_stamps", stamps)

        # Weakly not-taken 2-bit counters on a cold core.
        self.gshare_counters = np.ones(config.branch_predictor_entries,
                                       dtype=np.int8)
        if snapshot is not None:
            self.gshare_counters[:] = _snapshot_table(
                snapshot, "gshare_counters", self.gshare_counters.shape)
            fields = dict(zip(SNAPSHOT_INT_FIELDS,
                              (int(v) for v in snapshot["ints"])))
            for slot, key in _SC_SNAPSHOT_FIELDS:
                self.sc[slot] = fields[key]

        self.cfg_i = np.zeros(N_CFG_I, dtype=np.int64)
        self.cfg_f = np.zeros(N_CFG_F, dtype=np.float64)
        ci = self.cfg_i
        ci[CFG_FETCH_WIDTH] = config.fetch_width
        ci[CFG_ROB_SIZE] = config.rob_size
        ci[CFG_IQ_SIZE] = config.iq_size
        ci[CFG_LSQ_SIZE] = config.lsq_size
        ci[CFG_INT_ALU] = config.int_alu
        ci[CFG_FP_ALU] = config.fp_alu
        ci[CFG_MEM_PORTS] = config.mem_ports
        ci[CFG_IL1_LINE_BYTES] = config.il1_line_bytes
        ci[CFG_DL1_LATENCY] = config.dl1_latency
        ci[CFG_L2_LATENCY] = config.l2_latency
        ci[CFG_MEMORY_LATENCY] = config.memory_latency
        ci[CFG_TLB_MISS_LATENCY] = config.tlb_miss_latency
        ci[CFG_PIPELINE_DEPTH] = config.pipeline_depth
        ci[CFG_IL1_SET_MASK] = il1_mask
        ci[CFG_IL1_LINE_SHIFT] = il1_shift
        ci[CFG_IL1_ASSOC] = config.il1_assoc
        ci[CFG_DL1_SET_MASK] = dl1_mask
        ci[CFG_DL1_LINE_SHIFT] = dl1_shift
        ci[CFG_DL1_ASSOC] = config.dl1_assoc
        ci[CFG_L2_SET_MASK] = l2_mask
        ci[CFG_L2_LINE_SHIFT] = l2_shift
        ci[CFG_L2_ASSOC] = config.l2_assoc
        ci[CFG_BTB_N_SETS] = btb_sets
        ci[CFG_BTB_ASSOC] = config.btb_assoc
        ci[CFG_GSHARE_MASK] = config.branch_predictor_entries - 1
        ci[CFG_GSHARE_HISTORY_MASK] = (1 << config.branch_history_bits) - 1
        cf = self.cfg_f
        cf[CFGF_BITS_IQ] = STRUCTURE_BITS["iq"]
        cf[CFGF_BITS_ROB] = STRUCTURE_BITS["rob"]
        cf[CFGF_BITS_LSQ] = STRUCTURE_BITS["lsq"]
        cf[CFGF_BITS_REGFILE] = STRUCTURE_BITS["regfile"]

        # Scratch (empty at every interval boundary: the interval loop
        # runs until everything commits).
        rob_size = config.rob_size
        self.rob_local = np.zeros(rob_size, dtype=np.int64)
        self.rob_op = np.zeros(rob_size, dtype=np.int64)
        self.rob_ace = np.zeros(rob_size, dtype=np.int64)
        self.rob_ismem = np.zeros(rob_size, dtype=np.uint8)
        self.rob_issued = np.zeros(rob_size, dtype=np.uint8)
        self.rob_ready = np.zeros(rob_size, dtype=np.int64)
        self.rob_misp = np.zeros(rob_size, dtype=np.uint8)
        self.iq_slots = np.zeros(config.iq_size, dtype=np.int64)
        # An outstanding miss pins its load in the LSQ until the miss
        # completes, so lsq_size entries always suffice.
        self.miss_until = np.zeros(config.lsq_size, dtype=np.int64)

        if not compiled:
            for attr, _, _ in _STATE_FIELDS:
                setattr(self, attr, getattr(self, attr).tolist())

    # ------------------------------------------------------------------
    def export_structures(self) -> Dict[str, np.ndarray]:
        """Cache/BTB/TLB/gshare contents in the canonical snapshot form."""
        out = {}
        for name, tag_attr, n_sets, ways, _ in self._structures:
            table = _lru_rows(getattr(self, tag_attr),
                              getattr(self, name + "_stamps"), n_sets, ways)
            out[name + "_lru"] = table[0] if tag_attr.endswith("pages") \
                else table
        out["gshare_counters"] = np.array(self.gshare_counters,
                                          dtype=np.int8)
        return out

    def export_scalars(self) -> Dict[str, int]:
        """The structure scalars this state is authoritative for."""
        return {key: int(self.sc[slot]) for slot, key in _SC_SNAPSHOT_FIELDS}


def load_interval_scalars(core, state: KernelState) -> None:
    """Copy the core's interval scalars (cycle, DVM controller state)
    into the packed ``sc``/``fc``/``cfg`` vectors before a step.

    Shared by the scalar (:func:`run_interval_on_state`) and batched
    (:func:`run_interval_on_batch`) drivers so the two paths cannot
    drift: the exact same assignments, in the same order.
    """
    cfg_i, cfg_f, sc, fc = state.cfg_i, state.cfg_f, state.sc, state.fc
    dvm = core.dvm
    cfg_i[CFG_DVM_ENABLED] = 0 if dvm is None else 1
    cfg_i[CFG_DVM_SAMPLE_PERIOD] = core._dvm_sample_period
    cfg_i[CFG_MAX_CPI] = MAX_CPI
    if dvm is not None:
        policy = dvm.policy
        cfg_f[CFGF_DVM_THRESHOLD] = policy.threshold
        cfg_f[CFGF_WQ_INCREASE] = policy.wq_increase
        cfg_f[CFGF_WQ_DECREASE] = policy.wq_decrease
        cfg_f[CFGF_WQ_MAX] = policy.wq_max
        fc[FC_WQ_RATIO] = dvm.wq_ratio
        sc[SC_DVM_TRIGGERS] = dvm.trigger_count
        sc[SC_DVM_SAMPLES] = dvm.sample_count
    sc[SC_CYCLE] = core._cycle
    sc[SC_DVM_WINDOW_CYCLES] = core._dvm_window_cycles
    sc[SC_LAST_WAITING] = core._last_waiting
    sc[SC_LAST_READY] = core._last_ready
    fc[FC_DVM_WINDOW_ACE] = core._dvm_window_ace


def store_interval_scalars(core, state: KernelState, n: int) -> None:
    """Copy stepped ``sc``/``fc`` scalars back onto the core object
    (the inverse of :func:`load_interval_scalars`)."""
    sc, fc = state.sc, state.fc
    core._global_index += n
    core._cycle = int(sc[SC_CYCLE])
    core._last_waiting = int(sc[SC_LAST_WAITING])
    core._last_ready = int(sc[SC_LAST_READY])
    core._dvm_window_ace = float(fc[FC_DVM_WINDOW_ACE])
    core._dvm_window_cycles = int(sc[SC_DVM_WINDOW_CYCLES])
    dvm = core.dvm
    if dvm is not None:
        dvm.wq_ratio = float(fc[FC_WQ_RATIO])
        dvm.trigger_count = int(sc[SC_DVM_TRIGGERS])
        dvm.sample_count = int(sc[SC_DVM_SAMPLES])


def pack_trace(trace, compiled: bool):
    """The seven trace columns of one interval as int64 values in the
    kernel's container: contiguous arrays when compiled, lists
    otherwise."""
    columns = tuple(
        np.ascontiguousarray(column, dtype=np.int64)
        for column in (trace.op, trace.src1_dist, trace.src2_dist,
                       trace.address, trace.pc, trace.taken, trace.ace))
    if compiled:
        return columns
    return tuple(column.tolist() for column in columns)


def interval_stats(n: int, cycles: int, out_counters, out_ace,
                   out_ints) -> IntervalStats:
    """:class:`IntervalStats` from one core's raw kernel outputs."""
    if out_ints[OI_STATUS] != 0:
        raise SimulationError(
            f"interval exceeded {MAX_CPI} CPI — model deadlock")
    stats = IntervalStats(instructions=n)
    stats.cycles = int(cycles)
    stats.branch_mispredicts = int(out_ints[OI_MISPREDICTS])
    stats.dvm_throttled_cycles = int(out_ints[OI_THROTTLED])
    stats.counters = {key: float(out_counters[index])
                      for index, key in enumerate(COUNTER_KEYS)}
    stats.ace_bit_cycles = {
        "iq": float(out_ace[ACE_IQ]),
        "rob": float(out_ace[ACE_ROB]),
        "lsq": float(out_ace[ACE_LSQ]),
        "regfile": float(out_ace[ACE_REGFILE]),
    }
    return stats


def run_interval_on_state(core, state: KernelState,
                          trace) -> IntervalStats:
    """Advance ``core`` one interval through :func:`step_interval`.

    Copies the interval scalars (cycle, DVM controller state) from the
    core object into the packed state vectors, steps the kernel —
    compiled over arrays or interpreted over lists, per
    ``state.compiled`` — and copies them back.
    """
    n = len(trace)
    start_cycle = core._cycle
    load_interval_scalars(core, state)
    if state.compiled:
        step = compiled_step() or step_interval
        scratch = (np.zeros(n, np.int64), np.zeros(n, np.uint8),
                   np.zeros(5, np.int64))
        outputs = (np.zeros(N_CTR), np.zeros(N_ACE),
                   np.zeros(N_OI, np.int64))
    else:
        step = step_interval
        scratch = ([0] * n, [0] * n, [0] * 5)
        outputs = ([0.0] * N_CTR, [0.0] * N_ACE, [0] * N_OI)
    step(*pack_trace(trace, state.compiled),
         state.cfg_i, state.cfg_f,
         state.il1_tags, state.il1_stamps, state.dl1_tags, state.dl1_stamps,
         state.l2_tags, state.l2_stamps, state.btb_tags, state.btb_stamps,
         state.itlb_pages, state.itlb_stamps,
         state.dtlb_pages, state.dtlb_stamps,
         state.gshare_counters,
         state.rob_local, state.rob_op, state.rob_ace, state.rob_ismem,
         state.rob_issued, state.rob_ready, state.rob_misp, state.iq_slots,
         state.miss_until, *scratch, state.sc, state.fc, *outputs)
    stats = interval_stats(n, state.sc[SC_CYCLE] - start_cycle, *outputs)
    store_interval_scalars(core, state, n)
    return stats


# ----------------------------------------------------------------------
# Batched stepping (compiled only): a leading config axis B
# ----------------------------------------------------------------------

#: Lazily-resolved compiled batch stepper (``None`` = not attempted,
#: ``False`` = numba unavailable, else the prange dispatcher).
_BATCH_STEP = None


def compiled_batch_step():
    """The njit-compiled ``prange`` batch stepper (``False`` if no numba)."""
    global _BATCH_STEP
    if _BATCH_STEP is None:
        try:
            from repro.uarch import _pipeline_batch_numba

            _BATCH_STEP = _pipeline_batch_numba.step_batch
        except Exception:
            _BATCH_STEP = False
    return _BATCH_STEP


class BatchKernelState:
    """Stacked ``(B, width)`` arrays for a group of compiled states.

    Construction *adopts* the member :class:`KernelState` objects:
    every per-core array is copied into a row prefix of one stacked
    matrix, and the member's attribute is rebound to that row-prefix
    **view**.  From then on the member and the batch share memory — a
    member can still export :meth:`KernelState.export_structures` for a
    checkpoint (per-core ``ckpt/v2`` slices), and the batch sees any
    change.  ``lens`` records each core's true extents
    (:data:`_STATE_FIELDS` columns); the stepper slices every row back
    to them, so padding is never read.
    """

    def __init__(self, states):
        self.states = list(states)
        if not self.states:
            raise SimulationError("batch of zero kernel states")
        if not all(state.compiled for state in self.states):
            raise SimulationError("only compiled kernel states stack")
        n_cores = len(self.states)
        self.lens = np.zeros((n_cores, N_LEN), dtype=np.int64)
        for attr, column, pad in _STATE_FIELDS:
            rows = [getattr(state, attr) for state in self.states]
            width = max(row.shape[0] for row in rows)
            stacked = np.full((n_cores, width), pad, dtype=rows[0].dtype)
            for b, row in enumerate(rows):
                stacked[b, :row.shape[0]] = row
                if column is not None:
                    self.lens[b, column] = row.shape[0]
                setattr(self.states[b], attr, stacked[b, :row.shape[0]])
            setattr(self, attr, stacked)


def run_interval_on_batch(cores, batch: BatchKernelState, trace, active):
    """Advance every active core one interval in one compiled call.

    The batch analogue of :func:`run_interval_on_state`: per-core
    interval scalars are loaded/stored through the same helpers and the
    whole group steps through one ``prange`` call (per-row scratch is
    allocated inside the loop, so threads share nothing writable).
    Returns one :class:`IntervalStats` per core, ``None`` for rows the
    ``(B,)`` uint8 ``active`` mask leaves untouched.
    """
    from repro.uarch.jit import apply_jit_threads

    step = compiled_batch_step()
    if not step:
        raise SimulationError("batched stepping needs numba")
    apply_jit_threads()
    states = batch.states
    for b, core in enumerate(cores):
        if active[b]:
            load_interval_scalars(core, states[b])
    n_cores = len(cores)
    out_counters = np.zeros((n_cores, N_CTR), dtype=np.float64)
    out_ace = np.zeros((n_cores, N_ACE), dtype=np.float64)
    out_ints = np.zeros((n_cores, N_OI), dtype=np.int64)
    start_cycles = batch.sc[:, SC_CYCLE].copy()
    step(*pack_trace(trace, True),
         active, batch.lens, batch.cfg_i, batch.cfg_f,
         batch.il1_tags, batch.il1_stamps, batch.dl1_tags, batch.dl1_stamps,
         batch.l2_tags, batch.l2_stamps, batch.btb_tags, batch.btb_stamps,
         batch.itlb_pages, batch.itlb_stamps,
         batch.dtlb_pages, batch.dtlb_stamps,
         batch.gshare_counters,
         batch.rob_local, batch.rob_op, batch.rob_ace, batch.rob_ismem,
         batch.rob_issued, batch.rob_ready, batch.rob_misp, batch.iq_slots,
         batch.miss_until, batch.sc, batch.fc,
         out_counters, out_ace, out_ints)

    n = len(trace)
    results = []
    for b, core in enumerate(cores):
        stats = None
        if active[b]:
            stats = interval_stats(n, batch.sc[b, SC_CYCLE] - start_cycles[b],
                                   out_counters[b], out_ace[b], out_ints[b])
            store_interval_scalars(core, states[b], n)
        results.append(stats)
    return results
