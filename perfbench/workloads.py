"""The benchmark's three workloads, built only from the public API.

``benign_mc`` and ``sampled_mcf`` are single simulations.  The timed pass
composes them from the same public calls :func:`repro.experiment.run_system`
makes (trace build, ``MitigationSpec.build_instances``, ``System(...)``,
``System.run`` / ``run_sampled``) so that set-up and simulation can be timed
apart; their results must equal ``execute_spec``'s.  ``campaign_grid`` is a
``CampaignSpec`` drained by ``CampaignRunner`` into a fresh store, through
the sqlite queue and two worker processes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.campaign import CampaignRunner, ResultStore, SqliteQueue
from repro.cpu.core import CoreConfig
from repro.experiment import (
    CampaignSpec,
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    SampledConfig,
    WorkloadSpec,
)
from repro.sim.pool import shared_pool, shutdown_shared_pool
from repro.sim.sampled import run_sampled
from repro.sim.system import SimulationResult, System, SystemConfig

from measure import Spans

SINGLE_RUN = ("benign_mc", "sampled_mcf")

#: Worker processes of campaign_grid (the host this was sized on has two cores).
CAMPAIGN_WORKERS = 2
#: Mechanisms whose campaign cells must come out secure.
PROTECTED = ("comet", "graphene", "para")


def benign_mc(seed: int) -> ExperimentSpec:
    """429.mcf on 4 cores and 2 channels, CoMeT at NRH=125, full fidelity."""
    return ExperimentSpec(
        workload=WorkloadSpec("429.mcf", num_requests=5000, num_cores=4, seed=seed),
        mitigation=MitigationSpec("comet", nrh=125),
        platform=PlatformSpec(channels=2),
        verify_security="streaming",
    )


def sampled_mcf(seed: int, nrh: int = 250) -> ExperimentSpec:
    """429.mcf on 1 core, 60k requests, sampled fidelity, CoMeT.

    NRH=250, not 125: at 125 the sampled fast-forward's synchronous
    preventive-refresh hook recurses without bound on most seeds (see
    README.md, "Known defect"); the traced pass probes that configuration.
    """
    return ExperimentSpec(
        workload=WorkloadSpec("429.mcf", num_requests=60_000, seed=seed),
        mitigation=MitigationSpec("comet", nrh=nrh),
        verify_security="streaming",
        fidelity="sampled",
        sampled=SampledConfig(interval=8000, detailed_window=250, warmup=250),
    )


def campaign_grid(seed: int) -> CampaignSpec:
    """4 patterns x {comet, graphene, para} x NRH {125, 250, 500} + baselines."""
    return CampaignSpec(
        name="perfbench-campaign-grid",
        workloads=("429.mcf", "synth_uniform", "attack_traditional", "synth_blacksmith"),
        mitigations=PROTECTED,
        nrhs=(125, 250, 500),
        num_requests=1500,
        include_baseline=True,
        audit=True,
        seed=seed,
    )


def single_spec(workload: str, seed: int) -> ExperimentSpec:
    return benign_mc(seed) if workload == "benign_mc" else sampled_mcf(seed)


# --------------------------------------------------------------------- #
# Single runs
# --------------------------------------------------------------------- #
def compose_run(
    spec: ExperimentSpec,
    spans: Spans,
    on_system: Optional[Callable[[System], None]] = None,
) -> SimulationResult:
    """Run ``spec`` through the public calls ``run_system`` makes, timed.

    Traces are built fresh (no per-process memo), so every run pays the
    cold trace build a new process pays.
    """
    dram_config = spec.platform.dram_config()
    t0 = time.perf_counter()
    traces = spec.workload.build_traces(dram_config)
    t1 = time.perf_counter()
    mitigations = spec.mitigation.build_instances(dram_config.organization.channels)
    t2 = time.perf_counter()
    system = System(
        list(traces),
        mitigation=mitigations,
        config=SystemConfig(
            dram=dram_config,
            policy=spec.platform.controller,
            core=spec.platform.core or CoreConfig(),
            verify_security=bool(spec.verify_security),
            nrh_for_verification=spec.mitigation.nrh,
            record_violations=spec.verify_security != "streaming",
        ),
        name=spec.run_name(),
    )
    t3 = time.perf_counter()
    if on_system is not None:
        on_system(system)
    t4 = time.perf_counter()
    if spec.fidelity == "sampled":
        result = run_sampled(system, spec.sampled)
    else:
        result = system.run()
    t5 = time.perf_counter()
    spans.add("workloads.build_traces", t0, t1)
    spans.add("mitigations.build", t1, t2)
    spans.add("sim.system_init", t2, t3)
    spans.add("sim.run", t4, t5)
    return result


def fingerprint(result: SimulationResult) -> Dict[str, object]:
    """The simulated outputs a speed-only change must leave identical."""
    return {
        "cycles": result.cycles,
        "per_core_ipc": list(result.per_core_ipc),
        "per_core_instructions": list(result.per_core_instructions),
        "dram_stats": dict(result.dram_stats),
        "mitigation_stats": dict(result.mitigation_stats),
        "security_ok": result.security_ok,
        "max_disturbance": result.max_disturbance,
    }


def requests_served(result: SimulationResult) -> int:
    return result.read_requests + result.write_requests


def check_single(
    spec: ExperimentSpec,
    result: SimulationResult,
    reference: SimulationResult,
    expected: Optional[Dict[str, object]],
) -> List[str]:
    """Problems with one run (empty when the run is correct).

    ``reference`` is this process's ``execute_spec`` result for the same
    spec; ``expected`` is the committed fingerprint (default seed only).
    """
    problems = []
    trace_length = spec.workload.num_requests * spec.workload.total_cores
    if requests_served(result) != trace_length:
        problems.append(
            f"served {requests_served(result)} requests of a {trace_length}-entry trace"
        )
    if not result.security_ok:
        problems.append("CoMeT run reported insecure")
    if result != reference:
        problems.append("result differs from execute_spec's for the same spec")
    if expected is not None and fingerprint(result) != expected:
        problems.append("fingerprint differs from the committed reference")
    return problems


# --------------------------------------------------------------------- #
# Campaign
# --------------------------------------------------------------------- #
def record_digests(root: Path) -> Dict[str, str]:
    """sha256 of every record file in the store, keyed by spec hash."""
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((root / "records").rglob("*.json"))
    }


def store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in (root / "records").rglob("*.json"))


def _noop() -> int:
    return os.getpid()


def run_campaign(campaign: CampaignSpec, root: Path, spans: Spans) -> Dict[str, object]:
    """Drain ``campaign`` into a fresh store at ``root``; starts cold.

    The shared warm pool is started (and timed) before the runner reuses
    it, and shut down afterwards, so every call pays pool start and every
    worker begins with an empty trace memo — what a new ``repro campaign``
    process pays.
    """
    if root.exists():
        shutil.rmtree(root)
    t0 = time.perf_counter()
    store = ResultStore(root)
    queue = SqliteQueue(root / "queue.sqlite")
    runner = CampaignRunner(campaign, store, queue=queue, max_workers=CAMPAIGN_WORKERS)
    t1 = time.perf_counter()
    pool = shared_pool(CAMPAIGN_WORKERS)
    pool.submit(_noop).result()
    t2 = time.perf_counter()
    spans.add("campaign.store.init", t0, t1)
    spans.add("campaign.pool.start", t1, t2)
    spans.wrap(runner, "enqueue", "campaign.enqueue")
    spans.wrap(queue, "claim", "campaign.queue.claim", key_of=lambda a, item: item and item.key)
    spans.wrap(queue, "ack", "campaign.queue.ack", key_of=lambda a, ok: a[0])
    spans.wrap(store, "put_result", "campaign.store.put")
    try:
        t3 = time.perf_counter()
        runner.run()
        t4 = time.perf_counter()
    finally:
        shutdown_shared_pool(wait=True)
    spans.add("campaign.run", t3, t4)
    claims = spans.keyed_ends["campaign.queue.claim"]
    acks = spans.keyed_ends["campaign.queue.ack"]
    cells = campaign.cells()
    results = [(spec, store.get_result(spec)) for spec, _ in cells]
    return {
        "results": results,
        "cell_seconds": [acks[key] - claims[key] for key in acks if key in claims],
        "digests": record_digests(root),
        "bytes": store_bytes(root),
    }


def check_campaign(
    outcome: Dict[str, object], reference_digests: Dict[str, str]
) -> Dict[str, List[str]]:
    """Problems per failed cell of one drained campaign (empty when correct).

    ``reference_digests`` maps spec hash to the sha256 of its record bytes:
    the committed ones on the default seed, this process's first campaign's
    on any other seed.
    """
    problems: Dict[str, List[str]] = {}
    digests = outcome["digests"]
    for spec, result in outcome["results"]:
        label = spec.run_name()
        found = problems.setdefault(label, [])
        if result is None:
            found.append("no record in the store")
            continue
        if requests_served(result) != spec.workload.num_requests:
            found.append(f"served {requests_served(result)} requests")
        nrh = spec.mitigation.nrh
        if result.security_ok != (result.max_disturbance < nrh):
            found.append("verdict disagrees with max_disturbance")
        if spec.mitigation.name in PROTECTED and not result.security_ok:
            found.append("protected cell is insecure")
        spec_hash = spec.content_hash()
        if digests.get(spec_hash) != reference_digests.get(spec_hash):
            found.append("record bytes differ from the reference")
    return {label: found for label, found in problems.items() if found}
