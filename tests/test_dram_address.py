"""Tests for physical address <-> DRAM coordinate mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapper, DRAMAddress, _bits
from repro.dram.config import DRAMConfig, small_test_config
from repro.sim.runner import default_experiment_config


@pytest.fixture
def full_mapper():
    return AddressMapper(DRAMConfig())


class TestDecodeEncode:
    def test_roundtrip_sequential_addresses(self, mapper):
        line = mapper.config.organization.cacheline_bytes
        for address in range(0, 200 * line, line):
            decoded = mapper.decode(address)
            assert mapper.encode(decoded) == address

    def test_roundtrip_full_config(self, full_mapper):
        line = 64
        for address in range(0, 512 * line, 7 * line):
            decoded = full_mapper.decode(address)
            assert full_mapper.encode(decoded) == address

    def test_decode_fields_in_range(self, mapper):
        org = mapper.config.organization
        for address in range(0, 100_000, 4096 + 64):
            decoded = mapper.decode(address)
            assert 0 <= decoded.channel < org.channels
            assert 0 <= decoded.rank < org.ranks_per_channel
            assert 0 <= decoded.bankgroup < org.bankgroups_per_rank
            assert 0 <= decoded.bank < org.banks_per_bankgroup
            assert 0 <= decoded.row < org.rows_per_bank
            assert 0 <= decoded.column < org.columns_per_row

    def test_negative_address_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_consecutive_cachelines_spread_across_banks(self, full_mapper):
        """The mapping should interleave consecutive lines over banks (parallelism)."""
        line = 64
        banks = {full_mapper.decode(i * line).bank_key for i in range(16)}
        assert len(banks) > 4

    def test_same_row_lines_share_row(self, mapper):
        """Addresses differing only in column bits must decode to the same row."""
        base = mapper.address_for_row(10, bank_index=1, column=0)
        other = mapper.address_for_row(10, bank_index=1, column=8)
        a, b = mapper.decode(base), mapper.decode(other)
        assert a.row == b.row
        assert a.bank_key == b.bank_key
        assert a.column != b.column


class TestAddressForRow:
    def test_targets_requested_row_and_bank(self, mapper):
        org = mapper.config.organization
        for bank_index in mapper.all_bank_indices():
            address = mapper.address_for_row(42, bank_index=bank_index)
            decoded = mapper.decode(address)
            assert decoded.row == 42
            flat = (
                decoded.rank * org.banks_per_rank
                + decoded.bankgroup * org.banks_per_bankgroup
                + decoded.bank
            )
            assert flat == bank_index

    def test_row_wraps_around(self, mapper):
        rows = mapper.config.organization.rows_per_bank
        address = mapper.address_for_row(rows + 5, bank_index=0)
        assert mapper.decode(address).row == 5

    def test_all_bank_indices_count(self, mapper):
        org = mapper.config.organization
        assert len(mapper.all_bank_indices()) == org.ranks_per_channel * org.banks_per_rank

    def test_iter_rows(self, mapper):
        addresses = list(mapper.iter_rows(bank_index=0, start=10, count=5))
        rows = [mapper.decode(a).row for a in addresses]
        assert rows == [10, 11, 12, 13, 14]


class TestNeighbors:
    def test_middle_row_has_two_victims(self, mapper):
        address = mapper.decode(mapper.address_for_row(100, bank_index=0))
        victims = mapper.neighbors(address)
        assert {v.row for v in victims} == {99, 101}
        assert all(v.bank_key == address.bank_key for v in victims)

    def test_edge_rows_have_one_victim(self, mapper):
        rows = mapper.config.organization.rows_per_bank
        first = mapper.decode(mapper.address_for_row(0, bank_index=0))
        last = mapper.decode(mapper.address_for_row(rows - 1, bank_index=0))
        assert {v.row for v in mapper.neighbors(first)} == {1}
        assert {v.row for v in mapper.neighbors(last)} == {rows - 2}

    def test_blast_radius_two(self, mapper):
        address = mapper.decode(mapper.address_for_row(100, bank_index=0))
        victims = mapper.neighbors(address, blast_radius=2)
        assert {v.row for v in victims} == {98, 99, 101, 102}


class TestDRAMAddress:
    def test_bank_key_and_row_key(self):
        address = DRAMAddress(channel=0, rank=1, bankgroup=2, bank=3, row=7, column=0)
        assert address.bank_key == (0, 1, 2, 3)
        assert address.row_key == (0, 1, 2, 3, 7)

    def test_ordering(self):
        a = DRAMAddress(0, 0, 0, 0, 5, 0)
        b = DRAMAddress(0, 0, 0, 0, 6, 0)
        assert a < b


#: Every address-mappable geometry the test suite builds (paper-size,
#: benchmark/example platforms and the scaled-down test configurations).
GEOMETRIES = {
    "paper": lambda: DRAMConfig(),
    "experiment_1ch": lambda: default_experiment_config(),
    "experiment_2ch": lambda: default_experiment_config(channels=2),
    "experiment_4ch": lambda: default_experiment_config(channels=4),
    "experiment_1k_rows": lambda: default_experiment_config(rows_per_bank=1024),
    "small_default": lambda: small_test_config(),
    "small_2ch": lambda: small_test_config(rows_per_bank=256, channels=2),
    "small_4ch": lambda: small_test_config(rows_per_bank=1024, channels=4),
    "small_2rank": lambda: small_test_config(rows_per_bank=1024, ranks_per_channel=2),
    "small_4k_2rank": lambda: small_test_config(rows_per_bank=4096, ranks_per_channel=2),
    "tiny_256": lambda: small_test_config(rows_per_bank=256),
    "tiny_128": lambda: small_test_config(rows_per_bank=128),
    "tiny_64": lambda: small_test_config(rows_per_bank=64),
    "tiny_32": lambda: small_test_config(rows_per_bank=32),
    "tiny_16_1bg": lambda: small_test_config(rows_per_bank=16, bankgroups_per_rank=1),
}


def _reference_decode(config, physical_address):
    """The field-by-field arithmetic ``_decode_slow`` replaced: take each
    field with a mask, then reduce it modulo the dimension size."""
    org = config.organization

    def take(value, count):
        bits = _bits(count)
        if bits == 0:
            return value, 0
        return value >> bits, (value & ((1 << bits) - 1)) % count

    value = physical_address >> _bits(org.cacheline_bytes)
    value, channel = take(value, org.channels)
    value, bankgroup = take(value, org.bankgroups_per_rank)
    value, bank = take(value, org.banks_per_bankgroup)
    value, column = take(value, org.columns_per_row // org.columns_per_cacheline)
    value, rank = take(value, org.ranks_per_channel)
    return DRAMAddress(
        channel=channel,
        rank=rank,
        bankgroup=bankgroup,
        bank=bank,
        row=value % org.rows_per_bank,
        column=column * org.columns_per_cacheline,
    )


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
class TestShiftMaskDecode:
    @settings(max_examples=60, deadline=None)
    @given(physical=st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_matches_reference_arithmetic(self, geometry, physical):
        config = GEOMETRIES[geometry]()
        assert AddressMapper(config)._decode_slow(physical) == _reference_decode(
            config, physical
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decode_inverts_encode(self, geometry, data):
        config = GEOMETRIES[geometry]()
        org = config.organization
        address = DRAMAddress(
            channel=data.draw(st.integers(0, org.channels - 1)),
            rank=data.draw(st.integers(0, org.ranks_per_channel - 1)),
            bankgroup=data.draw(st.integers(0, org.bankgroups_per_rank - 1)),
            bank=data.draw(st.integers(0, org.banks_per_bankgroup - 1)),
            row=data.draw(st.integers(0, org.rows_per_bank - 1)),
            column=org.columns_per_cacheline
            * data.draw(
                st.integers(0, org.columns_per_row // org.columns_per_cacheline - 1)
            ),
        )
        mapper = AddressMapper(config)
        assert mapper.decode(mapper.encode(address)) == address
        assert mapper._decode_slow(mapper.encode(address)) == address
