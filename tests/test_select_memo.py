"""The fast select's enqueue re-scan is exact.

After an accepted READ/WRITE enqueue, the fused select may seed its demand
scan with the previous winner and re-scan only the enqueued bank.  These
tests drive random interleavings of enqueue, issue and clock advance and
check, after every step, that the controller's select returns exactly what
a from-scratch full scan of the same state returns (a freshly built select
closure, which has no memo).
"""

from hypothesis import given, settings, strategies as st

from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.request import MemoryRequest, RequestType
from repro.dram.commands import CommandKind
from repro.dram.config import small_test_config

#: Small queues, low drain watermarks and a low column cap, so write-drain
#: crossings and cap-forced precharges happen within a few dozen steps.
CONTROLLER = ControllerConfig(
    read_queue_size=6,
    write_queue_size=6,
    column_cap=1,
    write_drain_high=4,
    write_drain_low=1,
)
ROWS = (5, 9)


def _controller(channels: int) -> MemoryController:
    dram = small_test_config(rows_per_bank=64, channels=channels)
    controller = MemoryController(dram, config=CONTROLLER)
    assert controller._fast_select is not None
    return controller


def _request(controller, is_write, row, bank_index, channel=0):
    mapper = controller.mapper
    address = mapper.decode(
        mapper.address_for_row(row, bank_index=bank_index, channel=channel)
    )
    return MemoryRequest(
        request_type=RequestType.WRITE if is_write else RequestType.READ,
        address=address,
    )


def _full_scan(controller, cycle):
    return controller._build_fast_select()(cycle)


STEP = st.tuples(
    st.sampled_from(
        ("read", "write", "read_winner", "write_winner", "issue", "issue", "advance")
    ),
    st.integers(0, 1),  # bank index within the rank
    st.integers(0, 1),  # channel (folded onto channel 0 on 1-channel parts)
    st.integers(0, len(ROWS)),  # a fixed row, or the winner's open row
    st.integers(0, 3000),  # clock advance
)


@settings(max_examples=400, deadline=None)
@given(channels=st.sampled_from((1, 2)), steps=st.lists(STEP, max_size=60))
def test_select_equals_full_scan_after_every_step(channels, steps):
    controller = _controller(channels)
    cycle = 0
    decision = controller._fast_select(cycle)
    for op, bank_index, channel, row_choice, advance in steps:
        channel %= channels
        if op == "advance":
            # No select here: the next enqueue meets a memo from an earlier
            # cycle, possibly one past its winner's issue cycle.
            cycle += advance
            continue
        if op == "issue":
            decision = controller._fast_select(cycle)
            assert decision == _full_scan(controller, cycle)
            if decision is not None:
                cycle = controller.issue_decision(decision)
        else:
            is_write = op.startswith("write")
            winner = decision[2] if decision is not None else None
            if op.endswith("winner") and winner is not None:
                # Into the bank of the cached winner: must fall back to the
                # full scan.
                address = winner.address
                bank_index = address.bankgroup * 2 + address.bank
                channel = address.channel
                if row_choice == len(ROWS):
                    open_row = controller.dram.bank_for(address).open_row
                    row = address.row if open_row is None else open_row
                else:
                    row = ROWS[row_choice]
            else:
                row = ROWS[row_choice % len(ROWS)]
            controller.enqueue(
                _request(controller, is_write, row, bank_index, channel), cycle
            )
        decision = controller._fast_select(cycle)
        assert decision == _full_scan(controller, cycle)


def test_enqueue_elsewhere_returns_the_cached_decision():
    controller = _controller(1)
    controller.enqueue(_request(controller, False, 5, bank_index=0), 0)
    first = controller._fast_select(0)
    assert first[1].kind is CommandKind.ACT
    # A younger request to another bank cannot beat the winner: the select
    # re-scans that bank only and hands back the cached tuple itself.
    controller.enqueue(_request(controller, False, 7, bank_index=1), 0)
    assert controller._fast_select(0) is first
    assert _full_scan(controller, 0) == first


def test_enqueue_into_the_winners_bank_rescans_everything():
    controller = _controller(1)
    for row in (5, 5, 5):
        controller.enqueue(_request(controller, False, row, bank_index=0), 0)
    cycle = 0
    # ACT, then one RD: the column cap (1) is reached, but with no
    # conflicting request the next hit still wins.
    for _ in range(2):
        cycle = controller.issue_decision(controller._fast_select(cycle))
    decision = controller._fast_select(cycle)
    assert decision[1].kind is CommandKind.RD
    # A conflicting request to the open bank: at the cap, the precharge for
    # it outranks the remaining hits — a change inside the cached winner's
    # own bank, which only a full scan sees.
    controller.enqueue(_request(controller, False, 9, bank_index=0), cycle)
    rescanned = controller._fast_select(cycle)
    assert rescanned == _full_scan(controller, cycle)
    assert rescanned[1].kind is CommandKind.PRE
