"""Physical-address to DRAM-coordinate mapping.

The memory controller translates cache-line-aligned physical addresses into
(channel, rank, bank group, bank, row, column) coordinates.  The default
mapping interleaves consecutive cache lines across channels, bank groups and
banks before touching rank and row bits — the standard
``Row:Rank:BankGroup:Bank:Column:Channel`` style mapping that maximizes
bank-level parallelism for streaming workloads, matching the behaviour that
Ramulator's default DDR4 mapping gives the paper's workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.dram.config import DRAMConfig


class _cached_key:
    """Lock-free per-instance cache for the address key tuples.

    ``functools.cached_property`` would do the same job, but on Python 3.11
    it takes an RLock on every first access, which measurably *loses* to
    recomputing these tiny tuples (the lock was removed in 3.12).  This is
    the lock-free variant: compute once, stash in ``__dict__`` (allowed on a
    frozen dataclass — only ``__setattr__`` is blocked), and let ordinary
    attribute lookup find the cached tuple on every later read.  Equality,
    ordering and hashing are generated from the dataclass fields, so the
    cache never leaks into them.
    """

    def __init__(self, func):
        self._func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name) -> None:
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self._func(instance)
        instance.__dict__[self._name] = value
        return value


@dataclass(frozen=True, order=True, init=False)
class DRAMAddress:
    """A fully decoded DRAM coordinate.

    The constructor is hand-written for the same reason ``_cached_key``
    exists: it writes the fields straight into ``__dict__`` (only
    ``__setattr__`` is blocked on a frozen dataclass), skipping the
    generated ``__init__``'s per-field ``object.__setattr__`` calls.
    Equality, ordering, hashing, repr and pickling are still generated from
    the fields.
    """

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int

    def __init__(
        self, channel: int, rank: int, bankgroup: int, bank: int, row: int, column: int
    ) -> None:
        fields = self.__dict__
        fields["channel"] = channel
        fields["rank"] = rank
        fields["bankgroup"] = bankgroup
        fields["bank"] = bank
        fields["row"] = row
        fields["column"] = column
        # Every address the controller queues is asked for its bank key, so
        # fill that cache here rather than through the descriptor call.
        fields["bank_key"] = (channel, rank, bankgroup, bank)

    # The keys are cached because the same address object is asked for them
    # many times: the FR-FCFS scheduler groups every queued request by
    # ``bank_key`` on *every* command selection while the request waits, and
    # each ACT's address is interrogated by the mitigation hooks on top.

    @_cached_key
    def bank_key(self) -> Tuple[int, int, int, int]:
        """Globally unique bank identifier (channel, rank, bankgroup, bank)."""
        return (self.channel, self.rank, self.bankgroup, self.bank)

    @_cached_key
    def row_key(self) -> Tuple[int, int, int, int, int]:
        """Globally unique row identifier."""
        return (self.channel, self.rank, self.bankgroup, self.bank, self.row)


def _bits(value: int) -> int:
    """Number of bits needed to index ``value`` distinct items (0 for 1 item)."""
    if value <= 1:
        return 0
    return (value - 1).bit_length()


def validate_mappable_geometry(config: DRAMConfig) -> None:
    """Check every dimension of the organization is addressable without aliasing.

    The interleaved bit layout slices the physical address into fixed-width
    fields, so each dimension must be a power of two (or 1): a field of
    ``ceil(log2(n))`` bits over a non-power-of-two ``n`` would either leave
    encodings unused or alias two coordinates onto one address, breaking the
    ``decode(encode(x)) == x`` round-trip the workload generators rely on.
    """
    org = config.organization
    dimensions = {
        "channels": org.channels,
        "ranks_per_channel": org.ranks_per_channel,
        "bankgroups_per_rank": org.bankgroups_per_rank,
        "banks_per_bankgroup": org.banks_per_bankgroup,
        "rows_per_bank": org.rows_per_bank,
        "columns_per_row / columns_per_cacheline": (
            org.columns_per_row // org.columns_per_cacheline
        ),
        "cacheline_bytes": org.cacheline_bytes,
    }
    for name, value in dimensions.items():
        if value < 1 or value & (value - 1):
            raise ValueError(
                f"DRAM organization is not address-mappable: {name}={value} "
                f"is not a power of two, so a {_bits(value)}-bit address field "
                f"would alias distinct coordinates"
            )


class AddressMapper:
    """Translates byte physical addresses to :class:`DRAMAddress` and back.

    The bit layout, from least to most significant, is::

        [cacheline offset][channel][bankgroup][bank][column][rank][row]

    which interleaves consecutive cache lines across channels and banks
    (maximizing parallelism) while keeping a row's cache lines contiguous in
    the column bits (preserving row-buffer locality within a row).
    """

    def __init__(self, config: DRAMConfig) -> None:
        validate_mappable_geometry(config)
        self.config = config
        org = config.organization
        self._offset_bits = _bits(org.cacheline_bytes)
        self._channel_bits = _bits(org.channels)
        self._bankgroup_bits = _bits(org.bankgroups_per_rank)
        self._bank_bits = _bits(org.banks_per_bankgroup)
        self._column_bits = _bits(org.columns_per_row // org.columns_per_cacheline)
        self._rank_bits = _bits(org.ranks_per_channel)
        self._row_bits = _bits(org.rows_per_bank)
        self._fields = (
            self._offset_bits,
            self._channel_bits, (1 << self._channel_bits) - 1,
            self._bankgroup_bits, (1 << self._bankgroup_bits) - 1,
            self._bank_bits, (1 << self._bank_bits) - 1,
            self._column_bits, (1 << self._column_bits) - 1,
            self._rank_bits, (1 << self._rank_bits) - 1,
            (1 << self._row_bits) - 1,
            org.columns_per_cacheline,
        )
        # Decoded-address memo: workloads re-touch the same cache lines
        # (hammering patterns by construction, benign traces through
        # locality), DRAMAddress is frozen, and decode is pure — so decoding
        # each distinct physical address once per mapper is exact.  Bounded
        # so a pathological trace cannot grow it without limit.
        self._decode_memo: Dict[int, DRAMAddress] = {}

    _DECODE_MEMO_LIMIT = 1 << 20

    # ------------------------------------------------------------------ #
    # Decode / encode
    # ------------------------------------------------------------------ #
    def decode(self, physical_address: int) -> DRAMAddress:
        """Decode a byte-granularity physical address."""
        address = self._decode_memo.get(physical_address)
        if address is not None:
            return address
        address = self._decode_slow(physical_address)
        if len(self._decode_memo) < self._DECODE_MEMO_LIMIT:
            self._decode_memo[physical_address] = address
        return address

    def decode_transient(self, physical_address: int) -> DRAMAddress:
        """:meth:`decode` for an address touched once: reads the memo, never grows it.

        Sampled fidelity's fast-forward replays each skipped trace entry
        once per phase; memoizing those decodes would only keep objects
        alive (and promote them into the oldest garbage-collector
        generation) for no later hit.  Memo hits are still served.
        """
        address = self._decode_memo.get(physical_address)
        if address is None:
            address = self._decode_slow(physical_address)
        return address

    def _decode_slow(self, physical_address: int) -> DRAMAddress:
        if physical_address < 0:
            raise ValueError("physical address must be non-negative")
        # Every field is a power of two (validate_mappable_geometry), so a
        # shift and a mask extract it exactly.
        (
            offset_bits,
            channel_bits, channel_mask,
            bankgroup_bits, bankgroup_mask,
            bank_bits, bank_mask,
            column_bits, column_mask,
            rank_bits, rank_mask,
            row_mask,
            columns_per_cacheline,
        ) = self._fields
        value = physical_address >> offset_bits
        channel = value & channel_mask
        value >>= channel_bits
        bankgroup = value & bankgroup_mask
        value >>= bankgroup_bits
        bank = value & bank_mask
        value >>= bank_bits
        column = value & column_mask
        value >>= column_bits
        rank = value & rank_mask
        value >>= rank_bits
        return DRAMAddress(
            channel, rank, bankgroup, bank, value & row_mask,
            column * columns_per_cacheline,
        )

    def encode(self, address: DRAMAddress) -> int:
        """Inverse of :meth:`decode` (returns a cache-line-aligned byte address)."""
        return self._encode(
            address.channel, address.rank, address.bankgroup, address.bank,
            address.row, address.column,
        )

    def _encode(
        self, channel: int, rank: int, bankgroup: int, bank: int, row: int, column: int
    ) -> int:
        (
            offset_bits,
            channel_bits, _,
            bankgroup_bits, _,
            bank_bits, _,
            column_bits, _,
            rank_bits, _,
            _,
            columns_per_cacheline,
        ) = self._fields
        value = (row << rank_bits) | rank
        value = (value << column_bits) | (column // columns_per_cacheline)
        value = (value << bank_bits) | bank
        value = (value << bankgroup_bits) | bankgroup
        value = (value << channel_bits) | channel
        return value << offset_bits

    # ------------------------------------------------------------------ #
    # Convenience constructors used by workload generators
    # ------------------------------------------------------------------ #
    def address_for_row(
        self, row: int, bank_index: int = 0, column: int = 0, channel: int = 0
    ) -> int:
        """Build a physical address hitting a particular row of a flat bank index.

        ``bank_index`` enumerates (rank, bankgroup, bank) triples in
        rank-major order; workload and attack generators use this to target
        specific banks and rows directly.
        """
        org = self.config.organization
        rank, remainder = divmod(bank_index, org.banks_per_rank)
        bankgroup, bank = divmod(remainder, org.banks_per_bankgroup)
        return self._encode(
            channel % org.channels,
            rank % org.ranks_per_channel,
            bankgroup,
            bank,
            row % org.rows_per_bank,
            column % org.columns_per_row,
        )

    def all_bank_indices(self) -> List[int]:
        """Flat bank indices for every bank in one channel."""
        org = self.config.organization
        return list(range(org.ranks_per_channel * org.banks_per_rank))

    def iter_rows(self, bank_index: int, start: int, count: int) -> Iterator[int]:
        """Yield physical addresses for ``count`` consecutive rows of a bank."""
        for offset in range(count):
            yield self.address_for_row(start + offset, bank_index=bank_index)

    def neighbors(self, address: DRAMAddress, blast_radius: int = 1) -> Sequence[DRAMAddress]:
        """Victim rows physically adjacent to ``address`` (within ``blast_radius``).

        The paper's mitigations refresh the two immediate neighbours of an
        aggressor row; a larger blast radius models half-double style
        configurations used in some sensitivity tests.
        """
        org = self.config.organization
        victims = []
        for distance in range(1, blast_radius + 1):
            for direction in (-1, 1):
                victim_row = address.row + direction * distance
                if 0 <= victim_row < org.rows_per_bank:
                    victims.append(
                        DRAMAddress(
                            channel=address.channel,
                            rank=address.rank,
                            bankgroup=address.bankgroup,
                            bank=address.bank,
                            row=victim_row,
                            column=0,
                        )
                    )
        return victims
