#!/usr/bin/env python3
"""The repository benchmark: host throughput of the simulator, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload benign_mc --seed 0 --seconds 20 --trace 0

``--trace 0`` is the timed pass.  After one untimed warm-up run it repeats
the workload, with the profiler off, until ``--seconds`` have passed and
prints every end-to-end metric named in ``BENCHMARK.json``.  ``--trace 1`` is
the traced pass.  It runs a shorter timed pass, then one run under
``repro.analysis.profiling.profile_call``, then replays the captured ACT
stream through the sketch and the verifier, and prints every per-layer
metric.  Each printed line gives a metric's name, value and unit.  The last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Host-time metrics are scaled to the reference host speed recorded in
``perfbench/reference.json``; see README.md for why, and for what each
workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, NamedTuple, Tuple

import measure
from measure import HostSampler, Spans, rate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

#: What a fresh interpreter imports before it can run any of the workloads.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro.experiment.execute, repro.mitigations, repro.workloads, "
    "repro.sim.sampled, repro.campaign; "
    "print(time.perf_counter() - start)"
)
IMPORT_REPEATS = 3
#: Subpackages of ``repro`` on the run path; frames elsewhere (stdlib,
#: numpy, top-level ``repro`` modules, this benchmark) are ``other``.
LAYERS = (
    "workloads", "experiment", "sim", "cpu", "controller", "dram", "core",
    "sketch", "mitigations", "analysis", "energy", "campaign",
)
COMMAND_KINDS = ("acts", "pres", "reads", "writes", "refreshes")


class Tally:
    """Operations attempted and failed; a failure's reasons go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        return not problems

    def crashed(self, label: str) -> None:
        print(f"FAILED {label}: raised", file=sys.stderr)
        traceback.print_exc()
        self.attempted += 1
        self.failed += 1


def import_seconds(repeats: int) -> Tuple[List[float], HostSampler]:
    """Stack import time in fresh interpreters (after one untimed warm-up),
    with the host speed sampled meanwhile."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    times = []
    with HostSampler() as sampler:
        for index in range(repeats + 1):
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            if index:
                times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, sampler


# --------------------------------------------------------------------- #
# Timed passes
# --------------------------------------------------------------------- #
class Run(NamedTuple):
    """One timed repetition: its spans, its host sampler and its output."""

    spans: Spans
    sampler: HostSampler
    output: object

    def seconds(self, *labels: str) -> float:
        """Host seconds in the spans, less the sampler's own time."""
        return sum(self.spans.total(label, self.sampler) for label in labels)

    def durations(self, label: str) -> List[float]:
        return self.spans.durations(label, self.sampler)


SINGLE_SETUP = ("workloads.build_traces", "mitigations.build", "sim.system_init")
CAMPAIGN_SETUP = ("campaign.store.init", "campaign.pool.start", "campaign.enqueue")


def repeat(seconds: float, once, check, tally) -> List[Run]:
    """Repeat ``once(spans)`` under a host sampler until ``seconds`` pass.

    ``check(output)`` returns the failures per operation label; runs with
    any failure are counted and left out of the timings.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        spans = Spans()
        try:
            with HostSampler() as sampler:
                output = once(spans)
        except Exception:
            tally.crashed("run")
        else:
            failures = check(output)
            if all([tally.record(label, problems) for label, problems in failures.items()]):
                runs.append(Run(spans, sampler, output))
        if time.perf_counter() >= deadline:
            break
    if not runs:
        raise SystemExit("no timed run passed its checks")
    return runs


def timed_single(wl, workload: str, seed: int, seconds: float, reference, tally) -> Dict:
    from repro.experiment import execute_spec

    spec = wl.single_spec(workload, seed)
    expected = (
        reference["fingerprints"][workload] if seed == reference["default_seed"] else None
    )
    warm = execute_spec(spec)
    tally.record(f"{workload} warm-up", wl.check_single(spec, warm, warm, expected))
    imports = import_seconds(IMPORT_REPEATS)
    runs = repeat(
        seconds,
        lambda spans: wl.compose_run(spec, spans),
        lambda result: {workload: wl.check_single(spec, result, warm, expected)},
        tally,
    )
    return {"spec": spec, "warm": warm, "expected": expected, "imports": imports, "runs": runs}


def timed_campaign(wl, seed: int, seconds: float, reference, tally) -> Dict:
    campaign = wl.campaign_grid(seed)
    store = WORK / "store"
    warm = wl.run_campaign(campaign, store, Spans())
    if seed == reference["default_seed"]:
        expected = reference["campaign_records"]
    else:
        expected = warm["digests"]

    def check(outcome) -> Dict[str, List[str]]:
        failures = wl.check_campaign(outcome, expected)
        return {spec.run_name(): failures.get(spec.run_name(), [])
                for spec, _ in outcome["results"]}

    for label, problems in check(warm).items():
        tally.record(f"warm-up {label}", problems)
    imports = import_seconds(IMPORT_REPEATS)
    runs = repeat(
        seconds, lambda spans: wl.run_campaign(campaign, store, spans), check, tally
    )
    return {"campaign": campaign, "check": check, "imports": imports, "runs": runs}


def host_metrics(wl, workload: str, timed: Dict, slowdown) -> Dict[str, float]:
    """Host-time end-to-end metrics, each run's times divided by
    ``slowdown(run.sampler)`` (1 for the raw values)."""
    runs = timed["runs"]
    import_times, import_sampler = timed["imports"]
    imports = median(import_times) / slowdown(import_sampler, "import")
    if workload == "campaign_grid":
        drains = [
            (run.seconds("campaign.run") - run.seconds("campaign.enqueue")) / slowdown(run.sampler)
            for run in runs
        ]
        outputs = [[result for _, result in run.output["results"]] for run in runs]
        work = [
            (sum(wl.requests_served(r) for r in results), sum(r.cycles for r in results),
             len(results))
            for results in outputs
        ]
        cells = [
            cell / slowdown(run.sampler) for run in runs for cell in run.output["cell_seconds"]
        ]
        setup = median([run.seconds(*CAMPAIGN_SETUP) / slowdown(run.sampler) for run in runs])
    else:
        drains = [run.seconds("sim.run") / slowdown(run.sampler) for run in runs]
        work = [(wl.requests_served(run.output), run.output.cycles, 1) for run in runs]
        cells = drains
        setup = median([run.seconds(*SINGLE_SETUP) / slowdown(run.sampler) for run in runs])
    return {
        "requests_per_s": median([w[0] / s for w, s in zip(work, drains)]),
        "dram_cycles_per_s": median([w[1] / s for w, s in zip(work, drains)]),
        "cells_per_min": median([60.0 * w[2] / s for w, s in zip(work, drains)]),
        "cell_s_p50": median(cells),
        "cell_s_tail": measure.tail(cells)[0],
        "setup_s": imports + setup,
    }


def model_metrics(wl, workload: str, timed: Dict) -> Dict[str, float]:
    """Memory and the modelled design's IPC (deterministic per seed)."""
    if workload == "campaign_grid":
        results = [result for _, result in timed["runs"][0].output["results"]]
        return {
            "peak_rss_mb": measure.peak_rss_mb(children=wl.CAMPAIGN_WORKERS),
            "sim_ipc": sum(sum(r.per_core_ipc) / len(r.per_core_ipc) for r in results)
            / len(results),
        }
    ipc = timed["warm"].per_core_ipc
    return {"peak_rss_mb": measure.peak_rss_mb(), "sim_ipc": sum(ipc) / len(ipc)}


# --------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------- #
def _self_seconds(report) -> Dict[str, float]:
    metrics = {f"{layer}.self_s": report.components.get(layer, 0.0) for layer in LAYERS}
    metrics["other.self_s"] = sum(
        seconds for name, seconds in report.components.items() if name not in LAYERS
    )
    return metrics


def _phase_seconds(report, function: str) -> float:
    return sum(
        row["cum_s"] for row in report.hot_functions
        if row["function"] == function and row["location"].startswith("sampled.py:")
    )


def replay_sketch(acts, nrh: int) -> float:
    """ACTs/s through per-bank CoMeT-geometry count-min sketches."""
    from repro.core.config import CoMeTConfig
    from repro.sketch.count_min import ConservativeCountMinSketch, SketchConfig

    config = CoMeTConfig(nrh=nrh)
    sketches = {}
    for _, address, _ in acts:
        if address.bank_key not in sketches:
            sketches[address.bank_key] = ConservativeCountMinSketch(
                SketchConfig(
                    num_hashes=config.num_hashes,
                    counters_per_hash=config.counters_per_hash,
                    counter_width_bits=config.counter_width_bits,
                    seed=config.hash_seed + len(sketches),
                ),
                saturation_value=config.npr,
            )
    start = time.perf_counter()
    for _, address, _ in acts:
        sketch = sketches[address.bank_key]
        sketch.estimate(address.row)
        sketch.update(address.row)
    return rate(len(acts), time.perf_counter() - start)


def replay_verifier(acts, spec) -> float:
    """ACTs/s through a streaming ``SecurityVerifier.observe_batch``."""
    from repro.analysis.security import SecurityVerifier
    from repro.dram.dram_system import DRAMSystem

    verifier = SecurityVerifier(
        DRAMSystem(spec.platform.dram_config()),
        nrh=spec.mitigation.nrh,
        record_violations=False,
    )
    cycles = [cycle for cycle, _, _ in acts]
    addresses = [address for _, address, _ in acts]
    flags = [flag for _, _, flag in acts]
    start = time.perf_counter()
    verifier.observe_batch(cycles, addresses, flags)
    return rate(len(acts), time.perf_counter() - start)


def probe_sampled_recursion(wl, seed: int) -> int:
    """1 when sampled CoMeT at NRH=125 still recurses without bound on ``seed``."""
    from repro.experiment import execute_spec
    from repro.experiment.execute import clear_trace_cache

    try:
        execute_spec(wl.sampled_mcf(seed, nrh=125))
    except RecursionError:
        return 1
    finally:
        clear_trace_cache()
    return 0


def traced_layers(wl, workload: str, seed: int, timed: Dict, tally) -> Dict[str, float]:
    from repro.analysis.profiling import profile_call

    runs = timed["runs"]
    spans = Spans()
    acts: List[tuple] = []
    if workload == "campaign_grid":
        campaign = timed["campaign"]
        start = time.perf_counter()
        outcome, report = profile_call(
            lambda: wl.run_campaign(campaign, WORK / "store", spans), top=10**6
        )
        traced_wall = time.perf_counter() - start
        for label, problems in timed["check"](outcome).items():
            tally.record(f"traced {label}", problems)
        untraced_wall = median([
            run.seconds("campaign.store.init", "campaign.pool.start", "campaign.run")
            for run in runs
        ])
        results = [result for _, result in outcome["results"]]
        replays = dict.fromkeys(
            ("sketch.replay_updates_per_s", "analysis.replay_activations_per_s"), 0.0
        )
    else:
        spec = timed["spec"]

        def capture(system) -> None:
            for controller in system.fabric.controllers:
                controller.dram.add_activation_observer(
                    lambda cycle, address, preventive: acts.append((cycle, address, preventive))
                )

        start = time.perf_counter()
        result, report = profile_call(
            lambda: wl.compose_run(spec, spans, on_system=capture), top=10**6
        )
        traced_wall = time.perf_counter() - start
        tally.record(
            f"traced {workload}",
            wl.check_single(spec, result, timed["warm"], timed["expected"]),
        )
        untraced_wall = median([run.seconds(*SINGLE_SETUP, "sim.run") for run in runs])
        results = [result]
        replays = {
            "sketch.replay_updates_per_s": replay_sketch(acts, spec.mitigation.nrh),
            "analysis.replay_activations_per_s": replay_verifier(acts, spec),
        }

    def total(field: str) -> int:
        return sum(getattr(r, field) for r in results)

    def stat(kind: str) -> int:
        return sum(r.dram_stats.get(kind, 0) for r in results)

    def mitigation(kind: str) -> int:
        return sum(r.mitigation_stats.get(kind, 0) for r in results)

    metrics = _self_seconds(report)
    commands = sum(stat(kind) for kind in COMMAND_KINDS)
    observed = mitigation("observed_activations")
    # Rates divide a count by the traced self time of the layer that did
    # the work.  On campaign_grid that work ran in the worker processes,
    # which the parent's profile does not see, so those rates are 0 there.
    single = workload != "campaign_grid"

    def layer_rate(count: int, layer: str) -> float:
        return rate(count, metrics[f"{layer}.self_s"]) if single else 0.0

    metrics.update({
        "sim.events": total("steps"),
        "sim.events_per_s": layer_rate(total("steps"), "sim"),
        "controller.commands": commands,
        "controller.commands_per_s": layer_rate(commands, "controller"),
        "dram.commands_per_s": layer_rate(commands, "dram"),
        "cpu.requests_per_s": layer_rate(total("read_requests") + total("write_requests"), "cpu"),
        "sketch.activations_per_s": layer_rate(observed, "sketch"),
        "core.activations_per_s": layer_rate(observed, "core"),
        "analysis.activations_per_s": layer_rate(stat("acts"), "analysis"),
        "mitigation.observed_activations": observed,
        "mitigation.preventive_refreshes": mitigation("preventive_refreshes"),
        "mitigation.counter_resets": mitigation("counter_resets"),
        "sim.sampled.fast_forward_s": _phase_seconds(report, "_fast_forward"),
        "sim.sampled.detailed_s": _phase_seconds(report, "_run_detailed"),
        "host.trace_overhead_x": traced_wall / untraced_wall,
        "experiment.import_s": median(timed["imports"][0]),
        **replays,
    })

    def span_p50(label: str) -> float:
        values = [d for run in runs for d in run.durations(label)]
        return median(values) if values else 0.0

    for label in SINGLE_SETUP + ("sim.run",) + CAMPAIGN_SETUP:
        metrics[f"{label}_s"] = span_p50(label)
    for label in ("campaign.queue.claim", "campaign.queue.ack", "campaign.store.put"):
        metrics[f"{label}_s_p50"] = span_p50(label)
    campaign_counts = dict.fromkeys(
        ("campaign.queue.claims", "campaign.store.puts", "campaign.store.bytes",
         "campaign.runner_wait_s", "campaign.cell_tail_pct", "campaign.cell_samples"), 0
    )
    if not single:
        last = runs[-1]
        parent_busy = last.seconds(
            "campaign.queue.claim", "campaign.queue.ack", "campaign.store.put",
            "campaign.enqueue",
        )
        cells = [cell for run in runs for cell in run.output["cell_seconds"]]
        _, percentile, samples = measure.tail(cells)
        campaign_counts.update({
            "campaign.queue.claims": len(last.spans.keyed_ends["campaign.queue.claim"]),
            "campaign.store.puts": len(last.durations("campaign.store.put")),
            "campaign.store.bytes": last.output["bytes"],
            "campaign.runner_wait_s": last.seconds("campaign.run") - parent_busy,
            "campaign.cell_tail_pct": percentile,
            "campaign.cell_samples": samples,
        })
    metrics.update(campaign_counts)
    metrics["known_defect.sampled_recursion"] = probe_sampled_recursion(wl, seed)
    return metrics


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("benign_mc", "sampled_mcf", "campaign_grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: the simulator sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())

    import workloads as wl
    from repro import fastpath
    from repro._np import HAVE_NUMPY

    tally = Tally()
    WORK.mkdir(exist_ok=True)
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        if args.workload == "campaign_grid":
            timed = timed_campaign(wl, args.seed, seconds, reference, tally)
        else:
            timed = timed_single(wl, args.workload, args.seed, seconds, reference, tally)
        def slowdown(sampler: HostSampler, phase: str = args.workload) -> float:
            return sampler.mean_probe() / reference["probe_s"][phase]

        raw = host_metrics(wl, args.workload, timed, lambda sampler, phase=None: 1.0)
        if args.trace:
            metrics = traced_layers(wl, args.workload, args.seed, timed, tally)
            metrics.update({f"host.raw_{name}": value for name, value in raw.items()})
            metrics.update({
                "host.calib_s": median([run.sampler.mean_probe() for run in timed["runs"]]),
                "host.have_numpy": int(HAVE_NUMPY),
                "host.fastpath": int(fastpath.enabled()),
            })
            wanted = benchmark["per_layer"]
        else:
            metrics = {
                **host_metrics(wl, args.workload, timed, slowdown),
                **model_metrics(wl, args.workload, timed),
            }
            wanted = benchmark["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    names = [entry["name"] for entry in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            "metrics out of step with BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )
    slowdowns = [slowdown(run.sampler) for run in timed["runs"]]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"numpy={int(HAVE_NUMPY)} fastpath={int(fastpath.enabled())} "
          f"runs={len(slowdowns)} host_slowdown_p50={median(slowdowns):.4f}")
    for entry in wanted:
        name = entry["name"]
        suffix = f"  (raw {raw[name]:.6g})" if not args.trace and name in raw else ""
        print(f"{name:<36} {metrics[name]:>16.6g} {entry['unit']}{suffix}")
    print(f"{'error_rate':<36} {tally.failed / tally.attempted:>16.6g} failed/attempted")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
