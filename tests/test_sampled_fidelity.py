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
* **Cache hygiene**: a sampled spec hashes and sweep-caches under a
  different key than its full-fidelity twin, while full-fidelity hashing is
  byte-identical to before the fidelity axis existed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiment.execute import execute_spec
from repro.experiment.spec import ExperimentSpec, SampledConfig
from repro.sim.sweep import spec_cache_key

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
        assert spec_cache_key(full) != spec_cache_key(sampled)

    def test_sampling_knobs_hash_differently(self):
        a = _spec(BENIGN, "comet", 500, fidelity="sampled")
        b = _spec(
            BENIGN, "comet", 500, fidelity="sampled", sampled={"interval": 4000}
        )
        assert a.content_hash() != b.content_hash()
        assert spec_cache_key(a) != spec_cache_key(b)

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
