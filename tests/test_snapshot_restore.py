"""Round-trip tests for the Checkpoint protocol (``snapshot``/``restore``).

The sampled-fidelity executor depends on every stateful component producing
plain-data checkpoints that reproduce *identical subsequent behaviour* when
restored into a freshly constructed twin.  Two layers pin that:

* **Per-mitigation property tests** (hypothesis): drive a mitigation with an
  arbitrary prefix of ACT/REF events, snapshot, restore into an identically
  constructed instance, then feed both the same suffix — the restored twin
  must emit the same preventive-refresh decisions and end in the same state.
  Snapshots must survive a pickle round trip (the on-disk checkpoint form).
* **Whole-system pause/resume** per mitigation: run half a simulation in
  detail, checkpoint every component, restore into a fresh system and finish
  it there — the final :class:`SimulationResult` must be identical to an
  uninterrupted run (everything except the kernel step counter, which is
  split across the two kernels).
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.config import small_test_config
from repro.dram.dram_system import DRAMSystem
from repro.experiment import mitigation_names
from repro.sim.engine import EventKernel
from repro.sim.runner import build_mitigation, default_experiment_config
from repro.sim.sampled import _run_detailed
from repro.experiment.execute import build_workload_traces
from repro.experiment.spec import WorkloadSpec
from repro.sim.system import System, SystemConfig

MITIGATIONS = mitigation_names()

CONFIG = small_test_config(
    rows_per_bank=64,
    banks_per_bankgroup=2,
    bankgroups_per_rank=2,
    ranks_per_channel=1,
    refresh_window_scale=1.0 / 2048.0,
)


class _StubController:
    """Just enough controller surface to drive a mitigation standalone.

    Preventive decisions are recorded instead of simulated, so two
    mitigations fed the same event stream can be compared output-for-output.
    """

    def __init__(self) -> None:
        self.dram_config = CONFIG
        self.channel = 0
        self.mapper = AddressMapper(CONFIG)
        self.dram = DRAMSystem(CONFIG)
        self.outputs = []

    def schedule_preventive_refresh(self, address: DRAMAddress, cycle) -> None:
        self.outputs.append(("refresh", address, cycle))

    def schedule_rank_refresh(self, channel: int, rank: int, count: int) -> None:
        self.outputs.append(("rank_refresh", channel, rank, count))

    def enqueue_mitigation_request(self, address, is_write, cycle) -> bool:
        self.outputs.append(("request", address, is_write, cycle))
        return True


def _attached(name: str):
    # PARA refuses a derived p at nrh=16 (supercritical preventive
    # cascade); an explicit probability keeps it in the round-trip suite.
    kwargs = {"probability": 0.3} if name == "para" else {}
    mitigation = build_mitigation(name, nrh=16, **kwargs)
    mitigation.attach(_StubController())
    return mitigation


_addresses = st.builds(
    DRAMAddress,
    channel=st.just(0),
    rank=st.just(0),
    bankgroup=st.integers(0, 1),
    bank=st.integers(0, 1),
    row=st.integers(0, 63),
    column=st.just(0),
)
_events = st.lists(
    st.one_of(
        st.tuples(st.just("act"), _addresses),
        st.tuples(st.just("ref"), st.integers(0, 56)),
    ),
    max_size=120,
)


def _apply(mitigation, events, base_cycle: int) -> None:
    for offset, event in enumerate(events):
        cycle = base_cycle + offset
        if event[0] == "act":
            mitigation.on_activation(cycle, event[1], False)
        else:
            mitigation.on_refresh(cycle, (0, 0), event[1], 8)


class TestMitigationRoundTrip:
    @pytest.mark.parametrize("name", MITIGATIONS)
    @settings(max_examples=20, deadline=None)
    @given(prefix=_events, suffix=_events)
    def test_restore_reproduces_subsequent_behavior(self, name, prefix, suffix):
        original = _attached(name)
        _apply(original, prefix, base_cycle=0)
        # The on-disk checkpoint form: a plain picklable dict.
        checkpoint = pickle.loads(pickle.dumps(original.snapshot()))

        twin = _attached(name)
        twin.restore(checkpoint)
        assert twin.snapshot() == original.snapshot()

        seen = len(original.controller.outputs)
        _apply(original, suffix, base_cycle=len(prefix))
        _apply(twin, suffix, base_cycle=len(prefix))
        assert twin.controller.outputs == original.controller.outputs[seen:]
        assert twin.snapshot() == original.snapshot()

    @pytest.mark.parametrize("name", MITIGATIONS)
    def test_act_allowed_cycle_agrees_after_restore(self, name):
        """Throttling state (BlockHammer) must survive the round trip too."""
        original = _attached(name)
        hammered = DRAMAddress(channel=0, rank=0, bankgroup=0, bank=0, row=7, column=0)
        for cycle in range(64):
            original.on_activation(cycle, hammered, False)
        twin = _attached(name)
        twin.restore(original.snapshot())
        for probe_row in (6, 7, 8):
            probe = DRAMAddress(
                channel=0, rank=0, bankgroup=0, bank=0, row=probe_row, column=0
            )
            assert twin.act_allowed_cycle(probe, 64) == original.act_allowed_cycle(
                probe, 64
            )


# --------------------------------------------------------------------- #
# Whole-system pause/resume
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dram_config():
    return default_experiment_config()


@pytest.fixture(scope="module")
def trace(dram_config):
    return build_workload_traces(
        WorkloadSpec(name="synth_blacksmith", num_requests=1500), dram_config
    )[0]


def _build_system(trace, dram_config, name: str) -> System:
    return System(
        [trace],
        mitigation=build_mitigation(name, nrh=250),
        config=SystemConfig(dram=dram_config, nrh_for_verification=250),
    )


def _snapshot_system(system: System) -> dict:
    return {
        "cores": [core.snapshot() for core in system.cores],
        "controllers": [ctl.snapshot() for ctl in system.fabric.controllers],
        "verifiers": [verifier.snapshot() for verifier in system.verifiers],
    }


def _restore_system(system: System, state: dict) -> None:
    for core, snap in zip(system.cores, state["cores"]):
        core.restore(snap)
    for ctl, snap in zip(system.fabric.controllers, state["controllers"]):
        ctl.restore(snap)
    for verifier, snap in zip(system.verifiers, state["verifiers"]):
        verifier.restore(snap)


class TestSystemPauseResume:
    @staticmethod
    def _finish(system: System, kernel: EventKernel):
        for core in system.cores:
            core.window_limit = None
        now = kernel.run()
        system._steps = kernel.steps
        final = max(system.fabric.drain(int(math.ceil(now))), int(math.ceil(now)))
        return system._build_result(final)

    @pytest.mark.parametrize("name", MITIGATIONS)
    def test_restored_system_finishes_identically(self, trace, dram_config, name):
        # Run to a drained midpoint, checkpoint, and fork: the original
        # continues in place while a freshly built twin continues from the
        # restored checkpoint.  Their final results must match field for
        # field (the pause is common to both, so any difference is restore
        # infidelity).
        paused = _build_system(trace, dram_config, name)
        kernel = EventKernel(
            paused.cores, paused.fabric, max_steps=paused.config.max_steps
        )
        _run_detailed(kernel, paused.cores, len(trace) // 2)
        checkpoint = pickle.loads(pickle.dumps(_snapshot_system(paused)))
        paused_now = kernel.now
        reference = self._finish(paused, kernel)

        resumed = _build_system(trace, dram_config, name)
        _restore_system(resumed, checkpoint)
        resumed_kernel = EventKernel(
            resumed.cores, resumed.fabric, max_steps=resumed.config.max_steps
        )
        resumed_kernel.now = paused_now
        result = self._finish(resumed, resumed_kernel)

        expected = dict(vars(reference))
        actual = dict(vars(result))
        # The kernel step counter is split across the pause, so it is the
        # one field allowed to differ.
        expected.pop("steps")
        actual.pop("steps")
        assert actual == expected

    def test_undrained_snapshots_are_refused(self, trace, dram_config):
        """Snapshots are only defined at drained points; mid-flight state
        (request closures on the heap) is deliberately unsnapshottable."""
        system = _build_system(trace, dram_config, "comet")
        core = system.cores[0]
        # Issue one entry directly: a read goes in flight and its request
        # lands in the controller queue, so both guards must trip.
        core.step(0.0)
        assert core._outstanding, "expected the first step to issue a read"
        with pytest.raises(RuntimeError):
            core.snapshot()
        controller = system.fabric.controllers[0]
        assert controller.pending_requests() > 0
        with pytest.raises(RuntimeError):
            controller.snapshot()


class TestRFMPolicyPauseResume:
    """The RFM refresh policy's rolling state rides controller checkpoints.

    Same fork-and-compare shape as ``TestSystemPauseResume``, but with the
    DDR5 ``rfm`` refresh policy active on the controller: the restored twin
    must owe the same RFMs (RAA counters, per-bank row trackers, due set)
    and therefore finish with an identical result, RFM and in-DRAM refresh
    counts included.
    """

    def test_restored_system_finishes_identically(self, trace, dram_config):
        from repro.controller.policies import ControllerPolicySpec

        policy = ControllerPolicySpec(
            refresh_policy="rfm", params={"raaimt": 16, "raammt": 32}
        )

        def build() -> System:
            return System(
                [trace],
                mitigation=build_mitigation("none", nrh=250),
                config=SystemConfig(
                    dram=dram_config, policy=policy, nrh_for_verification=250
                ),
            )

        paused = build()
        kernel = EventKernel(
            paused.cores, paused.fabric, max_steps=paused.config.max_steps
        )
        _run_detailed(kernel, paused.cores, len(trace) // 2)
        checkpoint = pickle.loads(pickle.dumps(_snapshot_system(paused)))
        paused_now = kernel.now
        reference = TestSystemPauseResume._finish(paused, kernel)
        assert reference.dram_stats["acts"] > 0

        resumed = build()
        _restore_system(resumed, checkpoint)
        resumed_kernel = EventKernel(
            resumed.cores, resumed.fabric, max_steps=resumed.config.max_steps
        )
        resumed_kernel.now = paused_now
        result = TestSystemPauseResume._finish(resumed, resumed_kernel)

        expected = dict(vars(reference))
        actual = dict(vars(result))
        expected.pop("steps")
        actual.pop("steps")
        assert actual == expected


# --------------------------------------------------------------------- #
# Sketch checkpoints across backends
# --------------------------------------------------------------------- #
class TestSketchCheckpointPortability:
    """Sketch checkpoints are plain data.

    The sampled-fidelity executor pickles checkpoints, so a sketch snapshot
    must be picklable, JSON-clean and restorable into a fresh twin with
    identical subsequent behavior.
    """

    _sketch_keys = st.lists(st.integers(0, 31), min_size=1, max_size=60)

    @staticmethod
    def _factories():
        from repro.sketch.count_min import (
            ConservativeCountMinSketch,
            CountMinSketch,
            SketchConfig,
        )
        from repro.sketch.counting_bloom import CountingBloomFilter

        config = SketchConfig(
            num_hashes=4, counters_per_hash=32, counter_width_bits=6
        )
        return [
            lambda: CountMinSketch(config),
            lambda: ConservativeCountMinSketch(config),
            lambda: CountingBloomFilter(
                num_counters=64, num_hashes=3, counter_width_bits=5, seed=2
            ),
        ]

    @settings(max_examples=25, deadline=None)
    @given(prefix=_sketch_keys, suffix=_sketch_keys)
    def test_pickled_checkpoint_round_trips(self, prefix, suffix):
        import json

        for factory in self._factories():
            source = factory()
            for key in prefix:
                source.update(key)
            checkpoint = pickle.loads(pickle.dumps(source.snapshot()))
            # JSON round-trip proves every leaf is plain Python data.
            assert json.loads(json.dumps(checkpoint)) == checkpoint

            twin = factory()
            twin.restore(checkpoint)
            for key in suffix:
                assert twin.update(key) == source.update(key)
            assert twin.snapshot() == source.snapshot()
            assert [twin.estimate(k) for k in range(32)] == [
                source.estimate(k) for k in range(32)
            ]
