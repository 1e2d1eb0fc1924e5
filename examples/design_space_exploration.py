#!/usr/bin/env python3
"""Explore CoMeT's design space (mini versions of Figures 6, 7 and 9).

Three sweeps on a memory-intensive workload at a very low RowHammer threshold:

* Counter Table geometry — number of hash functions x counters per hash
  (Figure 6): more counters and more hash functions reduce collisions and
  hence unnecessary preventive refreshes.
* Recent Aggressor Table size (Figure 7): too few entries cause RAT thrashing.
* Counter reset period divider k (Figure 9): larger k resets counters more
  often (fewer saturated counters) but lowers NPR = NRH/(k+1), so k=3 is the
  sweet spot the paper selects.

Each configuration is an :class:`repro.ExperimentSpec` whose mitigation
carries a :class:`~repro.core.config.CoMeTConfig` override — config
dataclasses serialize right inside the spec JSON, so these sensitivity
points are cacheable and archivable like any other experiment.  All three
sweeps (plus the shared baseline) execute in one :class:`repro.Session`
batch: specs fan out across worker processes and land in the result store
(``$REPRO_CAMPAIGN_STORE`` or ``~/.cache/repro/campaigns``), so re-running
the example reuses every result.

Run with:  python examples/design_space_exploration.py
"""

from repro import ExperimentSpec, ExperimentWorkloadSpec, MitigationSpec, Session
from repro.analysis.reporting import format_table
from repro.campaign.store import default_store_dir
from repro.core.config import CoMeTConfig

NRH = 125
WORKLOAD = "429.mcf"
NUM_REQUESTS = 6000

CT_PAIRS = [(h, c) for h in (1, 2, 4) for c in (128, 512)]
RAT_SIZES = [32, 128, 512]
RESET_DIVIDERS = [1, 2, 3, 4]

WORKLOAD_SPEC = ExperimentWorkloadSpec(name=WORKLOAD, num_requests=NUM_REQUESTS)


def comet_spec(config: CoMeTConfig) -> ExperimentSpec:
    return ExperimentSpec(
        workload=WORKLOAD_SPEC,
        mitigation=MitigationSpec(name="comet", nrh=NRH, overrides={"config": config}),
    )


def main() -> None:
    baseline_spec = ExperimentSpec(
        workload=WORKLOAD_SPEC,
        mitigation=MitigationSpec(name="none", nrh=NRH),
        verify_security=False,
    )
    ct_specs = [
        comet_spec(CoMeTConfig(nrh=NRH, num_hashes=h, counters_per_hash=c))
        for h, c in CT_PAIRS
    ]
    rat_specs = [
        comet_spec(CoMeTConfig(nrh=NRH, rat_entries=entries)) for entries in RAT_SIZES
    ]
    reset_specs = [
        comet_spec(CoMeTConfig(nrh=NRH, reset_period_divider=k))
        for k in RESET_DIVIDERS
    ]

    session = Session(store=default_store_dir())
    all_specs = [baseline_spec, *ct_specs, *rat_specs, *reset_specs]
    records = session.run_many(all_specs)
    results = [record.result for record in records]
    baseline, results = results[0], results[1:]
    ct_results = results[: len(ct_specs)]
    rat_results = results[len(ct_specs) : len(ct_specs) + len(rat_specs)]
    reset_results = results[len(ct_specs) + len(rat_specs) :]

    # ------------------------------------------------------------------ #
    # Figure 6: Counter Table geometry sweep
    # ------------------------------------------------------------------ #
    rows = [
        {
            "NHash": num_hashes,
            "NCounters": counters,
            "norm_IPC": round(result.ipc / baseline.ipc, 4),
            "preventive_refreshes": result.preventive_refreshes,
        }
        for (num_hashes, counters), result in zip(CT_PAIRS, ct_results)
    ]
    print(format_table(rows, title=f"Counter Table sweep (Figure 6), {WORKLOAD}, NRH={NRH}"))
    print()

    # ------------------------------------------------------------------ #
    # Figure 7: RAT size sweep
    # ------------------------------------------------------------------ #
    rows = [
        {
            "RAT_entries": entries,
            "norm_IPC": round(result.ipc / baseline.ipc, 4),
            "early_refreshes": result.early_refresh_operations,
        }
        for entries, result in zip(RAT_SIZES, rat_results)
    ]
    print(format_table(rows, title=f"RAT size sweep (Figure 7), {WORKLOAD}, NRH={NRH}"))
    print()

    # ------------------------------------------------------------------ #
    # Figure 9: counter reset period (k) sweep
    # ------------------------------------------------------------------ #
    rows = [
        {
            "k": k,
            "NPR": CoMeTConfig(nrh=NRH, reset_period_divider=k).npr,
            "norm_IPC": round(result.ipc / baseline.ipc, 4),
            "preventive_refreshes": result.preventive_refreshes,
        }
        for k, result in zip(RESET_DIVIDERS, reset_results)
    ]
    print(format_table(rows, title=f"Reset period sweep (Figure 9), {WORKLOAD}, NRH={NRH}"))


if __name__ == "__main__":
    main()
