#!/usr/bin/env python3
"""Regenerate the expected outputs (and, on request, the host reference).

Run from the repository root, only when a change is meant to alter the
simulated results::

    python3 perfbench/reference.py            # fingerprints and digests
    python3 perfbench/reference.py --probes   # also re-anchor host speed

It rewrites the default seed's ``fingerprints`` of the single-run workloads
and the per-record digests of ``campaign_grid`` in ``reference.json``.
``--probes`` also rewrites ``probe_s``: per workload, and for the
stack-import timing, the mean host-speed probe time during one run on this
host.  Every scaled metric is relative to ``probe_s``, so re-anchoring it
invalidates the recorded ``baseline``; record a new one with
``spread.py --record`` afterwards.  The seeds are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from measure import HostSampler, Spans
from run import IMPORT_REPEATS, REFERENCE, SRC, WORK, import_seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probes", action="store_true",
                        help="also re-anchor the host-speed reference (probe_s)")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from repro.experiment import execute_spec

    reference = json.loads(REFERENCE.read_text())
    seed = reference["default_seed"]
    probes = {"import": import_seconds(IMPORT_REPEATS)[1].mean_probe()}
    fingerprints = {}
    for workload in wl.SINGLE_RUN:
        spec = wl.single_spec(workload, seed)
        execute_spec(spec)  # warm-up, as the timed pass does
        with HostSampler() as sampler:
            fingerprints[workload] = wl.fingerprint(execute_spec(spec))
        probes[workload] = sampler.mean_probe()
    WORK.mkdir(exist_ok=True)
    try:
        campaign = wl.campaign_grid(seed)
        wl.run_campaign(campaign, WORK / "store", Spans())
        with HostSampler() as sampler:
            outcome = wl.run_campaign(campaign, WORK / "store", Spans())
        probes["campaign_grid"] = sampler.mean_probe()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    problems = wl.check_campaign(outcome, outcome["digests"])
    if problems:
        raise SystemExit(f"campaign_grid fails its invariants: {problems}")
    if args.probes:
        reference["probe_s"] = probes
    reference["fingerprints"] = fingerprints
    reference["campaign_records"] = outcome["digests"]
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
