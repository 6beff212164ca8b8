"""Cache and TLB behaviour of the detailed pipeline kernel.

The caches live inside :func:`repro.uarch.pipeline_kernel.step_interval`
as flat tag/stamp containers, so these tests drive a real
:class:`~repro.uarch.pipeline.OutOfOrderCore` with hand-built
:class:`~repro.uarch.trace.InstructionTrace`\\ s and observe the
structures through the core's hit/miss scalars and its canonical
:meth:`~repro.uarch.pipeline.OutOfOrderCore.snapshot_state` (per-set
tags, least recently used first).

Probe cores default to near-zero miss latencies so that an interval
costs a handful of cycles whatever it misses; the latency tests set
their own.  All fetches use one PC, so after the first interval the
front end hits and stays out of the way.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.uarch.params import baseline_config
from repro.uarch.pipeline import OutOfOrderCore
from repro.uarch.trace import InstructionTrace, OpClass

#: The one fetch PC of every probe trace.
PC = 0x400000


def probe_config(**overrides):
    """Table 1 baseline with near-zero miss latencies, plus overrides."""
    fields = dict(memory_latency=1, tlb_miss_latency=1, l2_latency=1)
    fields.update(overrides)
    return replace(baseline_config(), **fields)


def make_trace(ops, addresses=None, pcs=None, taken=None):
    """An independent-instruction trace (no register dependences)."""
    n = len(ops)
    return InstructionTrace(
        op=np.array(ops, dtype=np.int8),
        src1_dist=np.zeros(n, dtype=np.int64),
        src2_dist=np.zeros(n, dtype=np.int64),
        address=np.array(addresses if addresses is not None else [0] * n,
                         dtype=np.int64),
        pc=np.array(pcs if pcs is not None else [PC] * n, dtype=np.int64),
        taken=np.array(taken if taken is not None else [False] * n,
                       dtype=bool),
        ace=np.zeros(n, dtype=bool),
    )


def scalars(core):
    """The core's structure hit/miss totals and gshare scalars."""
    return core.state.export_scalars()


def hit(core, trace, structure):
    """Run ``trace`` as one interval; True when ``structure`` hit."""
    before = scalars(core)[structure + "_hits"]
    core.run_interval(trace)
    return scalars(core)[structure + "_hits"] > before


def access(core, address, structure="dl1"):
    """One single-load interval; True when ``structure`` hit."""
    return hit(core, make_trace([OpClass.LOAD], [address]), structure)


def sweep(core, addresses):
    """All ``addresses`` as loads in one interval (independent loads
    issue in program order); returns the interval's DL1
    ``(hits, misses)``."""
    before = scalars(core)
    core.run_interval(make_trace([OpClass.LOAD] * len(addresses),
                                 addresses))
    after = scalars(core)
    return (after["dl1_hits"] - before["dl1_hits"],
            after["dl1_misses"] - before["dl1_misses"])


def lru_rows(core, structure):
    """Per-set resident tags, least recently used first."""
    table = core.snapshot_state()[structure + "_lru"]
    if table.ndim == 1:
        table = table[None, :]
    return [[int(tag) for tag in row if tag != -1] for row in table]


def dl1_core(size_kb, assoc, line_bytes=64, **overrides):
    return OutOfOrderCore(probe_config(dl1_size_kb=size_kb, dl1_assoc=assoc,
                                       dl1_line_bytes=line_bytes,
                                       **overrides))


class TestSetAssociativeCache:
    def test_repeat_access_hits(self):
        core = dl1_core(4, 2)
        assert not access(core, 0x1000)
        assert access(core, 0x1000)
        assert scalars(core)["dl1_hits"] == 1
        assert scalars(core)["dl1_misses"] == 1

    def test_same_line_different_bytes_hit(self):
        core = dl1_core(4, 2)
        access(core, 0x1000)
        assert access(core, 0x103F)      # same 64B line
        assert not access(core, 0x1040)  # next line

    def test_lru_eviction_order(self):
        # 2 ways, 1KB with 64B lines -> 8 sets; three lines in set 0.
        core = dl1_core(1, 2)
        set_stride = 8 * 64
        a, b, c = 0x0, set_stride, 2 * set_stride
        line = lambda address: address >> 6  # noqa: E731
        access(core, a)
        access(core, b)
        access(core, a)        # a is now MRU
        assert lru_rows(core, "dl1")[0] == [line(b), line(a)]
        access(core, c)        # evicts b (LRU)
        assert lru_rows(core, "dl1")[0] == [line(a), line(c)]
        assert access(core, a)
        assert not access(core, b)

    def test_capacity_fits_working_set(self):
        core = dl1_core(8, 4)                    # 128 lines
        lines = [i * 64 for i in range(128)]
        sweep(core, lines)
        assert sweep(core, lines) == (128, 0)

    def test_overflow_working_set_misses(self):
        core = dl1_core(8, 4)                    # 128 lines
        lines = [i * 64 for i in range(256)]     # 2x capacity, cyclic
        for _ in range(3):
            sweep(core, lines)
        assert sweep(core, lines) == (0, 256)    # cyclic sweep defeats LRU

    @given(st.integers(0, 2**40 - 1))
    @settings(max_examples=50, deadline=None)
    def test_inclusion_property(self, addr):
        """A bigger same-geometry cache never misses where the smaller
        hit (stack/inclusion property of LRU)."""
        small = dl1_core(4, 4)
        big = dl1_core(16, 4)
        rng = np.random.default_rng(addr % 65536)
        stream = (rng.integers(0, 1 << 10, size=200) * 64).tolist() + [addr]
        small_hits = [access(small, a) for a in stream]
        big_hits = [access(big, a) for a in stream]
        for s_hit, b_hit in zip(small_hits, big_hits):
            if s_hit:
                assert b_hit

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            OutOfOrderCore(replace(baseline_config(), il1_assoc=0))
        with pytest.raises(ConfigurationError, match="too small"):
            OutOfOrderCore(replace(baseline_config(), dl1_size_kb=1,
                                   dl1_assoc=64))   # capacity < assoc lines


@pytest.mark.parametrize("overrides,message", [
    ({"dl1_size_kb": 3}, "dl1: set count 12 is not a power of two"),
    ({"l2_assoc": 3}, "l2: set count 5461 is not a power of two"),
    ({"branch_predictor_entries": 1000},
     "gshare entries must be a positive power of two, got 1000"),
    ({"itlb_entries": 0}, "itlb: entries must be positive"),
], ids=["dl1-12-sets", "l2-3-way", "gshare-1000", "itlb-0"])
def test_kernel_geometry_checked_at_core_construction(overrides, message):
    """Geometries the kernel's set mask cannot index are rejected when
    the core is built, not silently aliased."""
    config = replace(baseline_config(), **overrides)
    with pytest.raises(ConfigurationError, match=message):
        OutOfOrderCore(config)


class TestTLB:
    def test_page_reuse_hits(self):
        core = OutOfOrderCore(probe_config(dtlb_entries=4))
        assert not access(core, 0x1000, "dtlb")
        assert access(core, 0x1FFF, "dtlb")        # same 4K page
        assert not access(core, 0x2000, "dtlb")

    def test_lru_eviction(self):
        core = OutOfOrderCore(probe_config(dtlb_entries=2))
        access(core, 0x0000, "dtlb")
        access(core, 0x1000 * 4, "dtlb")
        access(core, 0x0000, "dtlb")               # refresh first page
        assert lru_rows(core, "dtlb") == [[4, 0]]  # pages, LRU first
        access(core, 0x2000 * 4, "dtlb")           # evicts the second page
        assert lru_rows(core, "dtlb") == [[0, 8]]
        assert access(core, 0x0000, "dtlb")
        assert not access(core, 0x1000 * 4, "dtlb")

    def test_invalid_entries(self):
        with pytest.raises(ConfigurationError, match="entries must be"):
            OutOfOrderCore(replace(baseline_config(), dtlb_entries=0))


def load_cycles(config, warm, probe):
    """Cycles of a one-load interval at ``probe`` after ``warm`` loads."""
    core = OutOfOrderCore(config)
    core.run_interval(make_trace([OpClass.LOAD] * len(warm), warm)
                      if warm else make_trace([OpClass.INT_ALU]))
    return core.run_interval(make_trace([OpClass.LOAD], [probe])).cycles


class TestHierarchy:
    """Load-to-use latencies, read as the cycle cost of a one-load
    interval: changing one latency parameter moves it by exactly the
    latency the access path charges."""

    def test_dl1_hit_latency(self):
        a = 0x4000
        slow = load_cycles(probe_config(dl1_latency=4), [a], a)
        fast = load_cycles(probe_config(dl1_latency=1), [a], a)
        assert slow - fast == 3
        # A DL1 hit never reaches the L2 or memory.
        assert load_cycles(probe_config(l2_latency=30, memory_latency=90),
                           [a], a) == fast

    def test_l2_hit_latency(self):
        # 1KB 2-way DL1 (8 sets of 64B): two more lines in a's set
        # evict it from the DL1, the 2MB L2 keeps it.
        a = 0x100000
        warm = [a, a + 8 * 64, a + 16 * 64]
        base = dict(dl1_size_kb=1, dl1_assoc=2)
        l2_fast = load_cycles(probe_config(l2_latency=4, **base), warm, a)
        l2_slow = load_cycles(probe_config(l2_latency=12, **base), warm, a)
        assert l2_slow - l2_fast == 8
        mem_slow = load_cycles(probe_config(l2_latency=4, memory_latency=90,
                                            **base), warm, a)
        assert mem_slow == l2_fast

    def test_memory_latency_on_cold_miss(self):
        # Warm the page's TLB entry through another 128B line, so the
        # probe misses only in the caches.
        a = 0x77000000
        near = load_cycles(probe_config(memory_latency=100), [a + 256], a)
        far = load_cycles(probe_config(memory_latency=200), [a + 256], a)
        assert far - near == 100
        # A TLB miss adds tlb_miss_latency on top.
        cold = load_cycles(probe_config(memory_latency=100,
                                        tlb_miss_latency=50), [], a)
        assert cold - near == 50

    def test_inst_access_bubble_zero_on_hit(self):
        def fetch_cycles(config, warm):
            core = OutOfOrderCore(config)
            if warm:
                core.run_interval(make_trace([OpClass.INT_ALU]))
            return core.run_interval(make_trace([OpClass.INT_ALU])).cycles

        near = dict(l2_latency=2, memory_latency=5, tlb_miss_latency=3)
        far = dict(l2_latency=20, memory_latency=300, tlb_miss_latency=90)
        # A warm fetch costs no bubble, whatever a miss would cost...
        assert fetch_cycles(probe_config(**near), True) \
            == fetch_cycles(probe_config(**far), True)
        # ...a cold one pays the full IL1-miss + ITLB-miss bubble.
        assert fetch_cycles(probe_config(**far), False) \
            - fetch_cycles(probe_config(**near), False) == 18 + 295 + 87


class TestLruEquivalence:
    """The tag/stamp sets must reproduce a reference per-way true-LRU
    scan's hit/miss stream exactly (the detailed backend's results are
    pinned on it)."""

    @staticmethod
    def _reference(keys, n_sets, assoc, set_of):
        sets = [[] for _ in range(n_sets)]  # MRU last
        stream = []
        for key in keys:
            ways = sets[set_of(key)]
            if key in ways:
                ways.remove(key)
                ways.append(key)
                stream.append(True)
            else:
                if len(ways) >= assoc:
                    ways.pop(0)
                ways.append(key)
                stream.append(False)
        return stream, sets

    def test_cache_access_matches_reference_lru(self):
        core = dl1_core(1, 2, line_bytes=32)    # 16 sets
        rng = np.random.default_rng(5)
        addresses = [int(a) for a in rng.integers(0, 1 << 14, size=4000)]
        expected, sets = self._reference(
            [a >> 5 for a in addresses], 16, 2, lambda line: line & 15)
        observed = [access(core, a) for a in addresses]
        assert observed == expected
        assert scalars(core)["dl1_hits"] == sum(expected)
        assert scalars(core)["dl1_misses"] == len(expected) - sum(expected)
        assert lru_rows(core, "dl1") == sets

    def test_btb_access_matches_reference_lru(self):
        core = OutOfOrderCore(probe_config(btb_entries=64, btb_assoc=4))
        rng = np.random.default_rng(6)
        pcs = [int(a) * 4 for a in rng.integers(0, 256, size=3000)]
        expected, sets = self._reference(
            [pc >> 2 for pc in pcs], 16, 4, lambda tag: tag % 16)
        observed = [hit(core, make_trace([OpClass.BRANCH], pcs=[pc],
                                         taken=[True]), "btb")
                    for pc in pcs]
        assert observed == expected
        assert lru_rows(core, "btb") == sets

    def test_tlb_access_matches_reference_lru(self):
        core = OutOfOrderCore(probe_config(dtlb_entries=8))
        rng = np.random.default_rng(7)
        addresses = [int(p) << 12 for p in rng.integers(0, 24, size=2000)]
        expected, sets = self._reference(
            [a >> 12 for a in addresses], 1, 8, lambda page: 0)
        assert [access(core, a, "dtlb") for a in addresses] == expected
        assert lru_rows(core, "dtlb") == sets

    def test_cache_state_round_trips_through_snapshot(self):
        """What checkpointing persists: a core restored from a snapshot
        hits and misses exactly like the original."""
        core = dl1_core(1, 2, line_bytes=32)
        sweep(core, list(range(0, 4096, 32)))
        clone = OutOfOrderCore(core.config)
        clone.restore_state(core.snapshot_state())
        probe = [int(a) for a in
                 np.random.default_rng(8).integers(0, 1 << 13, size=500)]
        assert [access(core, a) for a in probe] == \
            [access(clone, a) for a in probe]
