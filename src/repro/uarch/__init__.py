"""Processor microarchitecture substrate.

The paper runs "a heavily modified and extended version of the
SimpleScalar tool set" modelling pipelined, multiple-issue, out-of-order
microprocessors with multi-level caches.  This package provides the
equivalent substrate:

``params``
    :class:`~repro.uarch.params.MachineConfig` — the Table 1 baseline
    machine plus the 9 varied parameters of Table 2.
``trace`` / ``pipeline`` / ``pipeline_kernel`` / ``detailed``
    A detailed cycle-level out-of-order simulator executing synthetic
    statistical instruction traces.
``interval_model``
    A fast, vectorized first-order superscalar model used for the
    3,000-run design-space sweeps (calibrated against the detailed
    simulator; see DESIGN.md for the substitution rationale).
``simulator``
    A facade selecting either backend.
"""

from repro.uarch.params import MachineConfig, baseline_config
from repro.uarch.simulator import Simulator, SimulationResult

__all__ = [
    "MachineConfig",
    "baseline_config",
    "Simulator",
    "SimulationResult",
]
