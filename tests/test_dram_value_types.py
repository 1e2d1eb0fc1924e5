"""Value semantics of the hand-initialized frozen dataclasses.

``Command`` and ``DRAMAddress`` write their fields straight into
``__dict__`` instead of using the generated ``__init__``.  Everything else
must behave exactly like a plain ``@dataclass(frozen=True)`` with the same
fields: immutability, equality, hashing, ordering, repr, pickling and
copying.
"""

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from repro.dram.address import DRAMAddress
from repro.dram.commands import Command, CommandKind


@dataclass(frozen=True)
class ReferenceCommand:
    kind: CommandKind
    channel: int = 0
    rank: int = 0
    bankgroup: int = 0
    bank: int = 0
    row: Optional[int] = None
    column: Optional[int] = None
    is_preventive: bool = False
    metadata: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True, order=True)
class ReferenceAddress:
    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int


def _reference_repr(value, reference_type, real_type) -> str:
    return repr(value).replace(reference_type.__name__, real_type.__name__, 1)


SMALL = st.integers(0, 3)
ADDRESS_FIELDS = st.tuples(SMALL, SMALL, SMALL, SMALL, st.integers(0, 9), SMALL)
COMMAND_FIELDS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(list(CommandKind)),
        "channel": SMALL,
        "rank": SMALL,
        "bankgroup": SMALL,
        "bank": SMALL,
        "row": st.integers(0, 9),
        "column": st.integers(0, 9),
        "is_preventive": st.booleans(),
    },
    optional={"metadata": st.just({"trfm": 7})},
)


class TestDRAMAddress:
    @given(ADDRESS_FIELDS, ADDRESS_FIELDS)
    def test_matches_reference_dataclass(self, a, b):
        real_a, real_b = DRAMAddress(*a), DRAMAddress(*b)
        ref_a, ref_b = ReferenceAddress(*a), ReferenceAddress(*b)
        assert (real_a == real_b) == (ref_a == ref_b)
        assert (real_a < real_b) == (ref_a < ref_b)
        assert (real_a <= real_b) == (ref_a <= ref_b)
        assert hash(real_a) == hash(ref_a)
        assert repr(real_a) == _reference_repr(ref_a, ReferenceAddress, DRAMAddress)
        assert dataclasses.astuple(real_a) == dataclasses.astuple(ref_a)

    def test_keywords_and_keys(self):
        address = DRAMAddress(channel=1, rank=0, bankgroup=2, bank=3, row=7, column=8)
        assert address == DRAMAddress(1, 0, 2, 3, 7, 8)
        assert address.bank_key == (1, 0, 2, 3)
        assert address.row_key == (1, 0, 2, 3, 7)
        assert dataclasses.replace(address, row=9).row_key == (1, 0, 2, 3, 9)

    def test_assignment_is_frozen(self):
        address = DRAMAddress(0, 0, 0, 0, 1, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            address.row = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            address.bank_key = (9, 9, 9, 9)

    @pytest.mark.parametrize(
        "clone",
        [
            lambda value: pickle.loads(pickle.dumps(value)),
            copy.deepcopy,
            copy.copy,
        ],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_round_trip_with_cached_keys(self, clone):
        address = DRAMAddress(1, 1, 0, 1, 42, 8)
        keys = (address.bank_key, address.row_key)  # fill both caches
        twin = clone(address)
        assert twin == address and hash(twin) == hash(address)
        assert (twin.bank_key, twin.row_key) == keys
        assert twin.row == 42 and twin.column == 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.row = 0


class TestCommand:
    @given(COMMAND_FIELDS, COMMAND_FIELDS)
    def test_matches_reference_dataclass(self, a, b):
        real_a, real_b = Command(**a), Command(**b)
        ref_a, ref_b = ReferenceCommand(**a), ReferenceCommand(**b)
        assert (real_a == real_b) == (ref_a == ref_b)
        assert hash(real_a) == hash(ref_a)
        assert repr(real_a) == _reference_repr(ref_a, ReferenceCommand, Command)
        assert real_a.metadata == ref_a.metadata

    def test_defaults(self):
        command = Command(CommandKind.REF, channel=1, rank=1)
        assert (command.bankgroup, command.bank, command.row, command.column) == (
            0, 0, None, None,
        )
        assert command.is_preventive is False
        assert command.bank_key == (0, 0)

    def test_metadata_is_fresh_per_instance_and_ignored_by_equality(self):
        first = Command(CommandKind.PRE)
        second = Command(CommandKind.PRE)
        assert first.metadata == {} and first.metadata is not second.metadata
        tagged = Command(CommandKind.PRE, metadata={"policy_close": True})
        assert tagged == first and hash(tagged) == hash(first)

    def test_assignment_is_frozen(self):
        command = Command(CommandKind.ACT, row=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            command.row = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            command.metadata = {}

    def test_act_requires_a_row(self):
        with pytest.raises(ValueError, match="ACT command requires a row"):
            Command(CommandKind.ACT, bank=1)

    @pytest.mark.parametrize("kind", [CommandKind.RD, CommandKind.WR])
    def test_column_commands_require_a_column(self, kind):
        with pytest.raises(ValueError, match=f"{kind.value} command requires a column"):
            Command(kind, row=1)

    @pytest.mark.parametrize("kind", [CommandKind.PRE, CommandKind.REF, CommandKind.RFM])
    def test_other_kinds_need_neither(self, kind):
        assert Command(kind).row is None

    @pytest.mark.parametrize(
        "clone",
        [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip(self, clone):
        command = Command(
            CommandKind.RFM, channel=1, bank=2, is_preventive=True,
            metadata={"trfm": 11},
        )
        twin = clone(command)
        assert twin == command and hash(twin) == hash(command)
        assert twin.metadata == {"trfm": 11}
        assert dataclasses.replace(twin, bank=3).bank == 3
