"""Tests for the sampled-fidelity executor (``fidelity="sampled"``).

Three guarantees, in decreasing order of strictness:

* **Security-event completeness** (hypothesis, the verifier-boundary
  property): the fast-forward path replays *every* activation into the
  mitigation and verifier observers and applies every periodic refresh at
  its tREFI crossing, so an attack a full-fidelity run flags as insecure is
  flagged by a sampled run for *any* sampling configuration — threshold
  crossings can never fall between detailed windows.  Verdicts are compared
  against the same streaming verifier the audit campaigns use.
* **Error bounds**: IPC and max_disturbance of a sampled run stay within a
  configured tolerance of the full-fidelity run (the calibrated fast-forward
  pace is measured in the detailed windows, so this bounds how representative
  the windows are).
* **Cache hygiene**: a sampled spec hashes (and so is stored) under a
  different key than its full-fidelity twin, while full-fidelity hashing is
  byte-identical to before the fidelity axis existed.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.fabric import ChannelFabric
from repro.experiment.execute import execute_spec
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    SampledConfig,
    WorkloadSpec,
)
from repro.sim.sampled import _bind_functional_access, run_sampled
from repro.sim.system import System, SystemConfig

#: Relative IPC tolerance for sampled runs on the workloads below.  The
#: calibrated pace tracks full fidelity to within a few percent (see
#: EXPERIMENTS.md); 15% leaves headroom for platform scheduling noise
#: without letting the estimate drift into uselessness.
IPC_TOLERANCE = 0.15
#: max_disturbance is phase-sensitive (it depends on where activations fall
#: relative to refresh boundaries, which sampling estimates), so its bound
#: is looser; the *verdict* (secure / not secure) has its own exact tests.
DISTURBANCE_TOLERANCE = 0.5


def _spec(workload, mitigation, nrh, fidelity="full", sampled=None, verify=True):
    data = {
        "workload": workload,
        "mitigation": {"name": mitigation, "nrh": nrh},
        "verify_security": verify,
    }
    if fidelity != "full":
        data["fidelity"] = fidelity
        if sampled is not None:
            data["sampled"] = sampled
    return ExperimentSpec.from_dict(data)


BENIGN = {"name": "synth_uniform", "num_requests": 12000}
ATTACK = {"name": "synth_blacksmith", "num_requests": 12000}


@pytest.fixture(scope="module")
def full_benign():
    return execute_spec(_spec(BENIGN, "comet", 500))


@pytest.fixture(scope="module")
def full_attack_unprotected():
    return execute_spec(_spec(ATTACK, "none", 125, verify="streaming"))


class TestErrorBounds:
    def test_benign_ipc_within_tolerance(self, full_benign):
        sampled = execute_spec(_spec(BENIGN, "comet", 500, fidelity="sampled"))
        assert sampled.ipc == pytest.approx(full_benign.ipc, rel=IPC_TOLERANCE)

    def test_benign_disturbance_within_tolerance(self, full_benign):
        sampled = execute_spec(_spec(BENIGN, "comet", 500, fidelity="sampled"))
        assert sampled.max_disturbance == pytest.approx(
            full_benign.max_disturbance, rel=DISTURBANCE_TOLERANCE, abs=2
        )
        assert sampled.security_ok == full_benign.security_ok

    def test_attack_ipc_within_tolerance(self):
        full = execute_spec(_spec(ATTACK, "comet", 250))
        sampled = execute_spec(_spec(ATTACK, "comet", 250, fidelity="sampled"))
        assert sampled.ipc == pytest.approx(full.ipc, rel=IPC_TOLERANCE)
        assert sampled.security_ok == full.security_ok

    def test_event_stream_is_complete(self, full_benign):
        """Fast-forward skips timing, never events: every demand access and
        every periodic refresh is observed (counts are exact for reads and
        writes; ACT counts track row-buffer state, which is functional)."""
        sampled = execute_spec(_spec(BENIGN, "comet", 500, fidelity="sampled"))
        assert sampled.dram_stats["reads"] == full_benign.dram_stats["reads"]
        assert sampled.dram_stats["writes"] == full_benign.dram_stats["writes"]
        full_refreshes = full_benign.dram_stats["refreshes"]
        assert sampled.dram_stats["refreshes"] == pytest.approx(
            full_refreshes, rel=0.2, abs=2
        )

    def test_per_core_instructions_exact(self, full_benign):
        sampled = execute_spec(_spec(BENIGN, "comet", 500, fidelity="sampled"))
        assert (
            sampled.per_core_instructions == full_benign.per_core_instructions
        )


class TestVerifierBoundaryProperty:
    """Threshold crossings are never sampled away.

    The unprotected blacksmith run is insecure at NRH=125 under full
    fidelity; any sampling configuration must reproduce the insecure
    verdict, because the verifier sees the complete activation stream and
    every refresh-window boundary (refreshes are applied at their exact
    tREFI crossings during fast-forward).
    """

    @settings(max_examples=6, deadline=None)
    @given(
        interval=st.integers(400, 4000),
        detailed_window=st.integers(1, 399),
        warmup=st.integers(0, 400),
    )
    def test_attack_detected_under_any_sampling(
        self, full_attack_unprotected, interval, detailed_window, warmup
    ):
        assert not full_attack_unprotected.security_ok
        sampled = execute_spec(
            _spec(
                ATTACK,
                "none",
                125,
                fidelity="sampled",
                sampled={
                    "interval": interval,
                    "detailed_window": detailed_window,
                    "warmup": warmup,
                },
                verify="streaming",
            )
        )
        assert not sampled.security_ok
        assert sampled.security_violations > 0
        assert sampled.first_violation_cycle is not None
        # The streaming verifier's running maximum crosses the threshold in
        # both modes — the disturbance events themselves are unsampled.
        assert sampled.max_disturbance >= 125

    @settings(max_examples=4, deadline=None)
    @given(interval=st.integers(500, 3000), detailed_window=st.integers(50, 400))
    def test_benign_stays_secure_under_any_sampling(
        self, full_benign, interval, detailed_window
    ):
        assert full_benign.security_ok
        sampled = execute_spec(
            _spec(
                BENIGN,
                "comet",
                500,
                fidelity="sampled",
                sampled={"interval": interval, "detailed_window": detailed_window},
            )
        )
        assert sampled.security_ok


class TestCacheHygiene:
    def test_sampled_spec_hashes_differently(self):
        full = _spec(BENIGN, "comet", 500)
        sampled = _spec(BENIGN, "comet", 500, fidelity="sampled")
        assert full.content_hash() != sampled.content_hash()

    def test_sampling_knobs_hash_differently(self):
        a = _spec(BENIGN, "comet", 500, fidelity="sampled")
        b = _spec(
            BENIGN, "comet", 500, fidelity="sampled", sampled={"interval": 4000}
        )
        assert a.content_hash() != b.content_hash()

    def test_full_fidelity_serialization_has_no_fidelity_keys(self):
        """Full-fidelity hashing is byte-identical to the pre-fidelity
        format (the pinned-hash test in test_experiment.py seals the exact
        digest; this pins the mechanism)."""
        full = _spec(BENIGN, "comet", 500)
        data = full.to_dict()
        assert "fidelity" not in data
        assert "sampled" not in data

    def test_sampled_spec_round_trips(self):
        spec = _spec(
            BENIGN,
            "comet",
            500,
            fidelity="sampled",
            sampled={"interval": 3000, "detailed_window": 300, "warmup": 100},
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.sampled == SampledConfig(
            interval=3000, detailed_window=300, warmup=100
        )


class TestDDR5MechanismFidelity:
    """PRAC/ABO and the RFM refresh policy keep their verdicts when sampled.

    Both mechanisms' protective state advances during functional
    fast-forward — PRAC's per-row counters through the replayed activation
    stream, RFM's RAA accounting through the activation/refresh observers
    (with the RAAMMT backstop applying the management action functionally,
    since fast-forward runs no scheduler) — so a sampled run reaches the
    same security verdict as the full-fidelity run it approximates.
    """

    def test_prac_verdict_and_disturbance_preserved(self):
        attack = {"name": "synth_blacksmith", "num_requests": 6000}
        full = execute_spec(_spec(attack, "prac", 64, verify="streaming"))
        sampled = execute_spec(
            _spec(attack, "prac", 64, fidelity="sampled", verify="streaming")
        )
        assert full.security_ok and sampled.security_ok
        # The ABO alert threshold bounds disturbance identically in both
        # modes: every activation is replayed into the in-DRAM counters.
        assert full.max_disturbance < 64
        assert sampled.max_disturbance == full.max_disturbance

    def test_rfm_policy_verdict_preserved(self):
        def spec(fidelity):
            data = {
                "workload": {"name": "synth_blacksmith", "num_requests": 6000},
                "mitigation": {"name": "none", "nrh": 64},
                "verify_security": "streaming",
                "platform": {
                    "controller": {
                        "refresh_policy": "rfm",
                        "params": {"raaimt": 16, "raammt": 32},
                    }
                },
            }
            if fidelity != "full":
                data["fidelity"] = fidelity
            return ExperimentSpec.from_dict(data)

        full = execute_spec(spec("full"))
        sampled = execute_spec(spec("sampled"))
        assert full.security_ok and sampled.security_ok
        assert full.max_disturbance < 64
        assert sampled.max_disturbance < 64


def _mcf_sampled(seed, nrh, fidelity="sampled"):
    """60k-request 429.mcf under CoMeT, sampled as the repository benchmark does."""
    data = {
        "workload": {"name": "429.mcf", "num_requests": 60_000, "seed": seed},
        "mitigation": {"name": "comet", "nrh": nrh},
        "verify_security": "streaming",
    }
    if fidelity != "full":
        data["fidelity"] = fidelity
        data["sampled"] = {"interval": 8000, "detailed_window": 250, "warmup": 250}
    return ExperimentSpec.from_dict(data)


class TestPreventiveRefreshQueue:
    """Fast-forward queues preventive refreshes until the ACT delivery that
    requested them has returned, as full fidelity's refresh queue does.

    Applying them synchronously re-entered the mitigation from inside its
    own activation hook: every victim ACT could trigger further refreshes
    one stack frame deeper, and both runs below ended in ``RecursionError``.
    """

    def test_blacksmith_comet_completes_secure(self):
        result = execute_spec(
            _spec(ATTACK, "comet", 125, fidelity="sampled", verify="streaming")
        )
        assert result.preventive_refreshes > 0
        assert result.security_ok
        # The mitigation observed every ACT, the victim-refresh ACTs included.
        assert result.mitigation_stats["observed_activations"] == result.dram_stats["acts"]

    def test_mcf_comet_completes(self):
        result = execute_spec(_mcf_sampled(seed=1, nrh=125))
        assert result.preventive_refreshes > 0
        assert result.mitigation_stats["observed_activations"] == result.dram_stats["acts"]
        # The verdict is the full-fidelity one (see the slow twin below):
        # on this trace a victim collects NPR-1 ACTs per reset period from
        # *each* neighbour, which the victim-centric verifier sums past NRH.
        assert not result.security_ok
        assert 125 <= result.max_disturbance < 125 * (1 + DISTURBANCE_TOLERANCE)

    @pytest.mark.slow
    def test_mcf_comet_verdict_matches_full_fidelity(self):
        full = execute_spec(_mcf_sampled(seed=1, nrh=125, fidelity="full"))
        sampled = execute_spec(_mcf_sampled(seed=1, nrh=125))
        assert sampled.security_ok == full.security_ok
        assert sampled.max_disturbance == pytest.approx(
            full.max_disturbance, rel=DISTURBANCE_TOLERANCE
        )


def _reference_warm_access(ctl, address, is_write, cycle):
    """A naive functional access: every object is looked up through the
    controller on every call.  The oracle :func:`_bind_functional_access`
    must match field for field; returns the read round-trip latency.
    """
    dram = ctl.dram
    bank = dram.bank_for(address)
    table, i = bank.table, bank.index
    timing = ctl.dram_config.timing
    row = address.row
    open_row = table.open_row[i]
    if open_row == row:
        ctl.stats.row_hits += 1
        latency = timing.tCL + timing.tBURST
    else:
        latency = timing.tRCD + timing.tCL + timing.tBURST
        if open_row is not None:
            table.open_row[i] = None
            bank.stats.precharges += 1
            dram.stats.pres += 1
            ctl.stats.row_conflicts += 1
            latency += timing.tRP
        ctl.stats.row_misses += 1
        table.open_row[i] = row
        table.col_accesses[i] = 0
        bank.stats.activations += 1
        bank.activation_counts[row] = bank.activation_counts.get(row, 0) + 1
        dram.stats.acts += 1
        dram.deliver_activation(cycle, address, False)
    table.col_accesses[i] += 1
    if is_write:
        bank.stats.writes += 1
        dram.stats.writes += 1
    else:
        bank.stats.reads += 1
        dram.stats.reads += 1
    return latency


def _functional_fabric(channels):
    """A CoMeT-protected fabric plus a recording ACT observer per channel."""
    dram_config = PlatformSpec(channels=channels).dram_config()
    fabric = ChannelFabric(
        dram_config,
        mitigations=MitigationSpec("comet", nrh=64).build_instances(channels),
    )
    delivered = []
    for ctl in fabric.controllers:
        ctl.dram.add_activation_observer(
            lambda cycle, address, is_preventive: delivered.append(
                (cycle, address.row_key, is_preventive)
            )
        )
    return fabric, delivered


def _functional_state(fabric, delivered):
    state = {"delivered": delivered}
    for ctl in fabric.controllers:
        dram = ctl.dram
        state[ctl.channel] = {
            "open_row": list(dram.timing_table.open_row),
            "col_accesses": list(dram.timing_table.col_accesses),
            "banks": {
                bank.bank_key: (vars(bank.stats), dict(bank.activation_counts))
                for bank in dram.iter_banks()
            },
            "dram": vars(dram.stats),
            "controller": vars(ctl.stats),
            "mitigation": vars(ctl.mitigation.stats),
        }
    return state


#: One access: (row, flat bank index, column, channel, is_write).  Few rows
#: and banks, so hits, misses and conflicts all occur; NRH=64 with runs of
#: one row makes CoMeT act on the stream too.
_ACCESS = st.tuples(
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 1),
    st.booleans(),
)


class TestBoundFunctionalAccess:
    """The phase-bound functional access is the reference access, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.sampled_from([1, 2]),
        stream=st.lists(st.tuples(_ACCESS, st.integers(1, 3)), max_size=300),
    )
    def test_matches_reference(self, channels, stream):
        self._compare(channels, stream)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_matches_reference_while_mitigating(self, channels):
        """Double-sided hammering on both channels: CoMeT schedules
        preventive refreshes from inside the bound access's ACT delivery."""
        stream = [((row, 0, 0, turn % 2, False), 1) for turn in range(400) for row in (1, 3)]
        bound = self._compare(channels, stream)
        assert all(ctl.stats.preventive_refreshes > 0 for ctl in bound.controllers)

    @staticmethod
    def _compare(channels, stream):
        reference, reference_acts = _functional_fabric(channels)
        bound, bound_acts = _functional_fabric(channels)
        accesses = [_bind_functional_access(ctl) for ctl in bound.controllers]
        mapper = reference.mapper
        cycle = 0
        for (row, bank_index, column, channel, is_write), repeat in stream:
            physical = mapper.address_for_row(
                row, bank_index=bank_index, column=column, channel=channel % channels
            )
            address = mapper.decode(physical)
            ctl = reference.controllers[address.channel]
            for _ in range(repeat):
                cycle += 7
                expected = _reference_warm_access(ctl, address, is_write, cycle)
                assert accesses[address.channel](address, is_write, cycle) == expected
        assert _functional_state(bound, bound_acts) == _functional_state(
            reference, reference_acts
        )
        return bound


class TestFastForwardFootprint:
    def test_decode_memo_holds_only_detailed_decodes(self):
        """Fast-forward decodes each skipped entry without memoizing it, so
        after a sampled run the mapper's decode memo holds at most the
        entries the detailed windows replayed."""
        workload = WorkloadSpec("synth_uniform", num_requests=6000, num_cores=2)
        config = SampledConfig(interval=1000, detailed_window=100, warmup=100)
        dram_config = PlatformSpec(channels=2).dram_config()
        traces = workload.build_traces(dram_config)
        system = System(
            list(traces),
            mitigation=MitigationSpec("comet", nrh=250).build_instances(2),
            config=SystemConfig(dram=dram_config, nrh_for_verification=250),
        )
        result = run_sampled(system, config)
        assert result.read_requests + result.write_requests == 2 * 6000

        windows = math.ceil((6000 - config.warmup) / config.interval)
        per_core = config.warmup + windows * config.detailed_window
        memo = system.fabric.mapper._decode_memo
        assert len(memo) <= per_core * len(traces)
        # The bound has teeth: the traces touch far more distinct lines.
        distinct = {entry.address for trace in traces for entry in trace}
        assert len(distinct) > 3 * per_core * len(traces)
