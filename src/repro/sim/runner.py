"""Mitigation construction and the scaled experiment platform.

Small helpers the examples, benchmarks and tests share:
:func:`build_mitigation`/:func:`build_mitigations` construct mechanisms by
registry name (:mod:`repro.experiment.registry`),
:func:`default_experiment_config` is the scaled DRAM configuration every
experiment runs on, and :func:`normalized_ipc` normalizes a run to its
unprotected baseline.  Simulations themselves are described by an
:class:`~repro.experiment.spec.ExperimentSpec` and executed by a
:class:`~repro.experiment.session.Session`, or assembled from explicitly
built traces with :func:`repro.experiment.execute.run_system`.
"""

from __future__ import annotations

from typing import List

from repro.dram.config import DRAMConfig
from repro.experiment.registry import mitigation_entry
from repro.experiment.spec import MitigationSpec, PlatformSpec
from repro.mitigations.base import RowHammerMitigation
from repro.sim.system import SimulationResult


def build_mitigation(name: str, nrh: int, **overrides) -> RowHammerMitigation:
    """Build a mitigation by name at a RowHammer threshold.

    ``overrides`` are forwarded to the mechanism's constructor for the
    sensitivity sweeps (e.g. ``config=CoMeTConfig(...)`` for Figures 6-9).
    The unprotected baseline takes no parameters, so it ignores them.
    """
    return mitigation_entry(name).build(nrh, **overrides)


def build_mitigations(
    name: str, nrh: int, channels: int, **overrides
) -> List[RowHammerMitigation]:
    """One independently-constructed mitigation instance per channel.

    The channel fabric requires distinct instances: sharing one object
    across channels would merge per-channel counter state.  Seedable
    mechanisms (PARA, BlockHammer — declared by their registry entry, no
    signature probing) get a per-channel ``seed`` so their channels draw
    independent streams; channel 0 keeps the default seed, preserving
    1-channel bit-identity.  Delegates to
    :meth:`~repro.experiment.spec.MitigationSpec.build_instances`, the one
    implementation of the per-channel construction rule.
    """
    return MitigationSpec(name=name, nrh=nrh, overrides=overrides).build_instances(
        channels
    )


def default_experiment_config(
    rows_per_bank: int = 4096,
    refresh_window_scale: float = 1.0 / 256.0,
    channels: int = 1,
) -> DRAMConfig:
    """The scaled DRAM configuration used by examples and benches.

    Two ranks with four banks each, 4K rows per bank, and a refresh window of
    ~300K DRAM cycles.  The scale is chosen so that, for the synthetic
    workload suite, the number of activations a hot row receives per
    counter-reset period relative to the preventive-refresh thresholds is in
    the same regime as the paper's full-length simulations (hot rows cross
    NPR at NRH=125 but not at NRH=1K); see EXPERIMENTS.md.  This is exactly
    what :meth:`~repro.experiment.spec.PlatformSpec.dram_config` builds.
    """
    return PlatformSpec(
        rows_per_bank=rows_per_bank,
        refresh_window_scale=refresh_window_scale,
        channels=channels,
    ).dram_config()


def normalized_ipc(result: SimulationResult, baseline: SimulationResult) -> float:
    """IPC of a mitigated run normalized to the unprotected baseline run."""
    if baseline.ipc == 0:
        return 0.0
    return result.ipc / baseline.ipc
