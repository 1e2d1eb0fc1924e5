"""CoMeT's single-pass activation path against a naive reference model.

``CoMeT.on_activation`` hashes a row at most once per ACT and skips the
Counter Table (CT) entirely on a Recent Aggressor Table (RAT) hit.  The
reference below is written independently, straight from Section 4.1 of the
paper, and does every step the slow way: it looks the row up in the RAT,
takes the CT minimum in one hash pass (even on a RAT hit, where the value
is unused), then either increments — re-hashing the row in a second pass —
or refreshes the victims, saturates the group, (re)allocates the RAT entry
and runs the early-preventive-refresh check.

Both are driven through the same random per-bank ACT streams; their
statistics, snapshots and preventive-refresh calls must agree exactly.
Hash functions and the RAT's random eviction are *parameters* of the
design, so the reference reuses the hash constants (through the scalar
``ShiftMaskHashFamily.hash``) and the same seeded ``random.Random`` draw.
"""

from __future__ import annotations

import random
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.comet import CoMeT
from repro.core.config import CoMeTConfig
from repro.dram.address import DRAMAddress
from repro.dram.config import small_test_config
from repro.sketch.hashes import ShiftMaskHashFamily
from tests.conftest import FakeController

ROWS = 16
CONFIG = small_test_config(
    rows_per_bank=ROWS,
    banks_per_bankgroup=2,
    bankgroups_per_rank=1,
    ranks_per_channel=1,
    refresh_window_scale=1.0 / 2048.0,
)
#: Tiny structures so short streams alias in the CT, fill and evict from
#: the RAT, and cross the early-preventive-refresh threshold.
COMET_CONFIG = CoMeTConfig(
    nrh=16,  # NPR = 16 // 4 = 4
    counters_per_hash=4,
    rat_entries=2,
    rat_miss_history_length=4,
    early_refresh_threshold_fraction=0.5,  # 2 capacity misses
)


class _ReferenceBank:
    def __init__(self, config: CoMeTConfig, seed: int) -> None:
        self.family = ShiftMaskHashFamily(
            config.num_hashes, config.counters_per_hash, seed=seed
        )
        self.counters = [[0] * config.counters_per_hash for _ in range(config.num_hashes)]
        self.total_updates = 0
        self.rat = {}
        self.rng = random.Random(seed)
        self.rat_stats = dict(
            allocations=0, evictions=0, hits=0, misses=0,
            capacity_misses=0, compulsory_misses=0,
        )
        self.history = deque(maxlen=config.rat_miss_history_length)

    def group(self, row):
        return [(i, self.family.hash(i, row)) for i in range(self.family.num_hashes)]

    def reset(self):
        for counters in self.counters:
            for column in range(len(counters)):
                counters[column] = 0
        self.total_updates = 0
        self.rat.clear()
        self.history.clear()


class ReferenceCoMeT:
    """Section 4.1, one step at a time (no shared code with ``CoMeT``)."""

    def __init__(self, config: CoMeTConfig) -> None:
        self.config = config
        self.npr = config.nrh // (config.reset_period_divider + 1)
        self.reset_period = max(1, CONFIG.tREFW // config.reset_period_divider)
        self.next_reset = self.reset_period
        self.banks = {}
        self.refreshes = []
        self.rank_refreshes = []
        self.stats = dict(
            observed_activations=0, preventive_refreshes=0,
            early_refresh_operations=0, counter_resets=0, rat_evictions=0,
        )

    def bank(self, bank_key):
        if bank_key not in self.banks:
            seed = self.config.hash_seed + (hash(bank_key) % 997)
            self.banks[bank_key] = _ReferenceBank(self.config, seed)
        return self.banks[bank_key]

    def activate(self, cycle, address):
        # Step 1: lazy periodic reset of every counter.
        if cycle >= self.next_reset:
            while cycle >= self.next_reset:
                self.next_reset += self.reset_period
            for bank in self.banks.values():
                bank.reset()
            self.stats["counter_resets"] += 1
        self.stats["observed_activations"] += 1
        bank = self.bank(address.bank_key)
        row = address.row

        # Step 2: RAT lookup, then the CT minimum (first hash pass).
        in_rat = row in bank.rat
        bank.rat_stats["hits" if in_rat else "misses"] += 1
        ct_min = min(bank.counters[i][column] for i, column in bank.group(row))
        estimate = bank.rat[row] if in_rat else ct_min

        # Step 3: increment, or refresh the victims.
        if estimate + 1 < self.npr:
            if in_rat:
                bank.rat[row] += 1
            else:  # conservative update (second hash pass)
                target = min(ct_min + 1, self.npr)
                for i, column in bank.group(row):
                    if bank.counters[i][column] < target:
                        bank.counters[i][column] = target
                bank.total_updates += 1
            return
        for victim in (row - 1, row + 1):
            if 0 <= victim < ROWS:
                self.refreshes.append((victim, address.bank_key, cycle))
                self.stats["preventive_refreshes"] += 1
        for i, column in bank.group(row):
            bank.counters[i][column] = max(bank.counters[i][column], self.npr)
        if in_rat:
            bank.rat[row] = 0
            return
        capacity_miss = ct_min >= self.npr
        bank.history.append(1 if capacity_miss else 0)
        bank.rat_stats["capacity_misses" if capacity_miss else "compulsory_misses"] += 1
        if len(bank.rat) >= self.config.rat_entries:
            evicted = bank.rng.choice(list(bank.rat.keys()))
            del bank.rat[evicted]
            bank.rat_stats["evictions"] += 1
            self.stats["rat_evictions"] += 1
        bank.rat[row] = 0
        bank.rat_stats["allocations"] += 1

        # Step 4: early preventive refresh of the whole rank.
        if sum(bank.history) >= self.config.early_refresh_threshold:
            self.rank_refreshes.append((address.channel, address.rank))
            self.stats["early_refresh_operations"] += 1
            for key, other in self.banks.items():
                if key[:2] == (address.channel, address.rank):
                    other.reset()


def _run_both(stream):
    controller = FakeController(CONFIG)
    comet = CoMeT(nrh=COMET_CONFIG.nrh, config=COMET_CONFIG)
    comet.attach(controller)
    reference = ReferenceCoMeT(COMET_CONFIG)
    cycle = 0
    for bank, row, gap in stream:
        cycle += gap
        address = DRAMAddress(
            channel=0, rank=0, bankgroup=0, bank=bank, row=row, column=0
        )
        comet.on_activation(cycle, address, False)
        reference.activate(cycle, address)
    return comet, controller, reference


def _assert_equivalent(comet, controller, reference):
    stats = comet.stats
    assert stats.observed_activations == reference.stats["observed_activations"]
    assert stats.preventive_refreshes == reference.stats["preventive_refreshes"]
    assert stats.early_refresh_operations == reference.stats["early_refresh_operations"]
    assert stats.counter_resets == reference.stats["counter_resets"]
    assert stats.extra.get("rat_evictions", 0) == reference.stats["rat_evictions"]

    assert [
        (address.row, address.bank_key, cycle)
        for address, cycle in controller.preventive_refreshes
    ] == reference.refreshes
    assert [
        (channel, rank) for channel, rank, _ in controller.rank_refreshes
    ] == reference.rank_refreshes

    snapshot = comet.snapshot()["state"]["banks"]
    assert list(snapshot) == list(reference.banks)
    for bank_key, bank in reference.banks.items():
        state = snapshot[bank_key]
        assert state["counter_table"] == {
            "counters": bank.counters, "total_updates": bank.total_updates,
        }
        assert state["rat"]["entries"] == list(bank.rat.items())
        assert state["rat"]["rng_state"] == bank.rng.getstate()
        assert state["rat"]["stats"] == bank.rat_stats
        assert state["miss_history"] == list(bank.history)


#: (bank, row, cycle gap): two banks, 16 rows, gaps that sometimes jump a
#: whole counter-reset period.
_reset_period = COMET_CONFIG.reset_period_cycles(CONFIG.tREFW)
_streams = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, ROWS - 1),
        st.one_of(st.integers(0, 3), st.just(_reset_period)),
    ),
    max_size=300,
)


class TestSinglePassMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(stream=_streams)
    def test_random_streams(self, stream):
        _assert_equivalent(*_run_both(stream))

    def test_stream_covers_every_branch(self):
        """One fixed stream reaching RAT hits, evictions, saturation, early
        preventive refresh and the periodic reset — all equal to the
        reference."""
        rng = random.Random(7)
        stream = [(rng.randrange(2), rng.choice((3, 4, 5, 9, 10)), 1) for _ in range(600)]
        stream.append((0, 3, _reset_period))
        stream += [(0, 3, 1)] * 10
        comet, controller, reference = _run_both(stream)
        _assert_equivalent(comet, controller, reference)

        rat_stats = [bank["rat"]["stats"] for bank in comet.snapshot()["state"]["banks"].values()]
        assert comet.stats.counter_resets >= 1
        assert comet.stats.early_refresh_operations >= 1
        assert comet.stats.extra["rat_evictions"] >= 1
        assert sum(stats["hits"] for stats in rat_stats) >= 1
        assert sum(stats["capacity_misses"] for stats in rat_stats) >= 1
        assert comet.stats.preventive_refreshes >= 1
