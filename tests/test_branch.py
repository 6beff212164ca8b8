"""Branch prediction behaviour of the detailed pipeline kernel.

The gshare predictor and the BTB live inside
:func:`repro.uarch.pipeline_kernel.step_interval`; these tests drive an
:class:`~repro.uarch.pipeline.OutOfOrderCore` with hand-built branch
traces (see ``test_caches``) and read the predictor through the core's
lookup / mispredict / BTB scalars and its canonical snapshot.
Independent branches resolve in program order, so one interval can
carry a whole training stream.
"""

from dataclasses import replace

import numpy as np
import pytest
from test_caches import hit, lru_rows, make_trace, probe_config, scalars

from repro.errors import ConfigurationError
from repro.uarch.params import baseline_config
from repro.uarch.pipeline import OutOfOrderCore
from repro.uarch.trace import OpClass


def branches(core, pc, outcomes):
    """Resolve one branch at ``pc`` per outcome, in one interval;
    returns that interval's mispredict count."""
    outcomes = [bool(t) for t in outcomes]
    before = scalars(core)["gshare_mispredicts"]
    core.run_interval(make_trace([OpClass.BRANCH] * len(outcomes),
                                 pcs=[pc] * len(outcomes), taken=outcomes))
    return scalars(core)["gshare_mispredicts"] - before


def mispredict_rate(core):
    s = scalars(core)
    return s["gshare_mispredicts"] / s["gshare_lookups"]


def predicts_taken(core, pc):
    """gshare's next prediction for ``pc``, read from the snapshot."""
    snapshot = core.snapshot_state()
    history = scalars(core)["gshare_history"]
    counters = snapshot["gshare_counters"]
    return counters[((pc >> 2) ^ history) & (len(counters) - 1)] >= 2


class TestGshare:
    def test_learns_always_taken_branch(self):
        core = OutOfOrderCore(probe_config())
        branches(core, 0x4000, [True] * 50)
        assert predicts_taken(core, 0x4000)
        # Steady state: no mispredicts on a monomorphic branch.
        assert branches(core, 0x4000, [True] * 100) == 0

    def test_learns_biased_branch_well(self):
        rng = np.random.default_rng(0)
        core = OutOfOrderCore(probe_config())
        branches(core, 0x1234, rng.uniform(size=2000) < 0.95)
        assert mispredict_rate(core) < 0.15

    def test_random_branch_mispredicts_half(self):
        rng = np.random.default_rng(1)
        core = OutOfOrderCore(probe_config())
        branches(core, 0x5678, rng.uniform(size=4000) < 0.5)
        assert 0.35 < mispredict_rate(core) < 0.65

    def test_learns_alternating_pattern_via_history(self):
        """T,NT,T,NT is perfectly predictable with global history."""
        core = OutOfOrderCore(probe_config())
        branches(core, 0x9000, [i % 2 == 0 for i in range(400)])
        late = branches(core, 0x9000, [i % 2 == 0 for i in range(400, 600)])
        assert late / 200 < 0.05

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            OutOfOrderCore(replace(baseline_config(),
                                   branch_predictor_entries=1000))
        with pytest.raises(ConfigurationError, match="history_bits"):
            OutOfOrderCore(replace(baseline_config(), branch_history_bits=0))


def btb_hit(core, pc):
    """One taken branch at ``pc``; True on a BTB hit."""
    return hit(core, make_trace([OpClass.BRANCH], pcs=[pc], taken=[True]),
               "btb")


class TestBTB:
    def test_hit_after_allocation(self):
        core = OutOfOrderCore(probe_config())
        assert not btb_hit(core, 0x4000)
        assert btb_hit(core, 0x4000)

    def test_lru_within_set(self):
        core = OutOfOrderCore(probe_config(btb_entries=8, btb_assoc=2))
        set_stride = 4 * 4                            # pc >> 2 % 4 sets
        a, b, c = 0x0, set_stride << 2, (2 * set_stride) << 2
        btb_hit(core, a)
        btb_hit(core, b)
        btb_hit(core, a)
        assert lru_rows(core, "btb")[0] == [b >> 2, a >> 2]
        btb_hit(core, c)   # evicts b
        assert lru_rows(core, "btb")[0] == [a >> 2, c >> 2]
        assert btb_hit(core, a)
        assert not btb_hit(core, b)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError, match="multiple of assoc"):
            OutOfOrderCore(replace(baseline_config(), btb_entries=10,
                                   btb_assoc=4))


class TestFrontEnd:
    def test_bundle_uses_table1_geometry(self):
        snapshot = OutOfOrderCore(baseline_config()).snapshot_state()
        assert snapshot["gshare_counters"].shape == (2048,)
        assert snapshot["btb_lru"].shape == (512, 4)      # 2048 entries
        assert (snapshot["gshare_counters"] == 1).all()   # weakly not-taken

    def test_resolve_branch_trains(self):
        core = OutOfOrderCore(probe_config())
        # The 10-bit global history walks ~10 distinct counters before
        # saturating, so train well past the cold phase.
        branches(core, 0x4000, [True] * 400)
        assert mispredict_rate(core) < 0.05
        assert scalars(core)["gshare_lookups"] == 400
        assert scalars(core)["btb_hits"] == 399   # one cold allocation
