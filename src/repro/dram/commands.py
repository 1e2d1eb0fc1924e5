"""DRAM command definitions.

The memory controller drives the DRAM device model with the five DDR4
commands the paper's mechanisms care about: ``ACT``, ``PRE``, ``RD``, ``WR``
and the rank-level ``REF``.  Preventive refreshes issued by RowHammer
mitigations are not a distinct DRAM command — per Section 7.2.2 of the paper
they are performed as an ACT+PRE pair to the victim row — but commands carry
a ``is_preventive`` flag so statistics and the energy model can attribute
them separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class CommandKind(enum.Enum):
    """The DRAM command types modelled by the simulator.

    ``RFM`` (Refresh Management) is the DDR5 addition: a bank-scoped
    command that gives the device a ``tRFM`` window to refresh the
    potential victims of recent activations.  The window length rides in
    :attr:`Command.metadata` under ``"trfm"`` because it is a policy
    parameter, not a device constant.
    """

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    RFM = "RFM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, init=False)
class Command:
    """One DRAM command addressed to a specific location.

    ``rank``/``bankgroup``/``bank`` identify the target bank; ``row`` is
    required for ACT, ``column`` for RD/WR.  REF is rank-level and ignores the
    bank fields.

    The controller builds one command per scheduling decision, so the
    constructor is hand-written: it validates, then writes the fields
    straight into ``__dict__`` (allowed on a frozen dataclass — only
    ``__setattr__`` is blocked), which costs half the generated
    ``__init__`` + ``__post_init__`` pair.  Equality, hashing, repr and
    pickling are still generated from the fields below.
    """

    kind: CommandKind
    channel: int = 0
    rank: int = 0
    bankgroup: int = 0
    bank: int = 0
    row: Optional[int] = None
    column: Optional[int] = None
    is_preventive: bool = False
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __init__(
        self,
        kind: CommandKind,
        channel: int = 0,
        rank: int = 0,
        bankgroup: int = 0,
        bank: int = 0,
        row: Optional[int] = None,
        column: Optional[int] = None,
        is_preventive: bool = False,
        metadata: Optional[dict] = None,
    ) -> None:
        if row is None and kind is CommandKind.ACT:
            raise ValueError("ACT command requires a row")
        if column is None and (kind is CommandKind.RD or kind is CommandKind.WR):
            raise ValueError(f"{kind} command requires a column")
        fields = self.__dict__
        fields["kind"] = kind
        fields["channel"] = channel
        fields["rank"] = rank
        fields["bankgroup"] = bankgroup
        fields["bank"] = bank
        fields["row"] = row
        fields["column"] = column
        fields["is_preventive"] = is_preventive
        fields["metadata"] = {} if metadata is None else metadata

    @property
    def bank_key(self) -> tuple:
        """(bankgroup, bank) pair identifying the target bank within its rank."""
        return (self.bankgroup, self.bank)

    def describe(self) -> str:
        """Human-readable one-line description (used in logs and error messages)."""
        location = f"ch{self.channel}/ra{self.rank}/bg{self.bankgroup}/ba{self.bank}"
        if self.kind is CommandKind.ACT:
            location += f"/row{self.row}"
        elif self.kind in (CommandKind.RD, CommandKind.WR):
            location += f"/col{self.column}"
        preventive = " (preventive)" if self.is_preventive else ""
        return f"{self.kind}{preventive} -> {location}"
