"""Tests for the hash families used by the sketch-based trackers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.hashes import (
    MultiplyShiftHashFamily,
    ShiftMaskHashFamily,
    TabulationHashFamily,
    collision_rate,
    make_hash_family,
)

FAMILIES = [ShiftMaskHashFamily, MultiplyShiftHashFamily, TabulationHashFamily]


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_within_range(family_cls):
    family = family_cls(num_hashes=4, num_buckets=512, seed=3)
    for key in range(0, 5000, 7):
        for index in range(4):
            value = family.hash(index, key)
            assert 0 <= value < 512


#: Keys over [0, 2**40), weighted around 2**32 (where the fold times a
#: 32-bit constant first overflows 64 bits) and towards row-sized keys, plus
#: a few negatives.
_KEYS = st.one_of(
    st.integers(0, (1 << 40) - 1),
    st.integers((1 << 32) - 256, (1 << 32) + 256),
    st.integers(0, 1 << 17),
    st.integers(-256, -1),
)


@settings(max_examples=400, deadline=None)
@given(
    key=_KEYS,
    num_buckets=st.sampled_from([1, 512, 1000, 1024, 1 << 57, 1 << 58]),
    num_hashes=st.integers(1, 8),
    seed=st.integers(0, 40),
)
def test_shift_mask_hash_all_matches_masked_reference(key, num_buckets, num_hashes, seed):
    """``hash_all``'s mask-only path (power-of-two buckets up to 2**57) and
    its fallback both equal the per-function ``hash``, which keeps the
    64-bit-truncated, modulo-reduced form as the reference."""
    family = ShiftMaskHashFamily(num_hashes, num_buckets, seed=seed)
    assert family.hash_all(key) == [family.hash(i, key) for i in range(num_hashes)]


@pytest.mark.parametrize("key", [0, 1, (1 << 17) - 1, (1 << 32) - 1, 1 << 32, (1 << 40) - 1])
@pytest.mark.parametrize("seed", [0, 5, 16])
def test_shift_mask_hash_all_boundaries(key, seed):
    for buckets in (1, 512, 1000, 1024, 1 << 57, 1 << 58):
        family = ShiftMaskHashFamily(4, buckets, seed=seed)
        assert family.hash_all(key) == [family.hash(i, key) for i in range(4)]


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_deterministic_for_same_seed(family_cls):
    a = family_cls(num_hashes=3, num_buckets=128, seed=11)
    b = family_cls(num_hashes=3, num_buckets=128, seed=11)
    for key in range(100):
        assert a.hash_all(key) == b.hash_all(key)


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_varies_with_seed(family_cls):
    a = family_cls(num_hashes=3, num_buckets=1024, seed=1)
    b = family_cls(num_hashes=3, num_buckets=1024, seed=2)
    keys = list(range(200))
    differing = sum(1 for key in keys if a.hash_all(key) != b.hash_all(key))
    assert differing > 150


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_functions_are_distinct(family_cls):
    """Different hash functions of one family should not be identical."""
    family = family_cls(num_hashes=4, num_buckets=512, seed=5)
    keys = list(range(0, 1000, 3))
    for i in range(4):
        for j in range(i + 1, 4):
            same = sum(1 for key in keys if family.hash(i, key) == family.hash(j, key))
            assert same < len(keys) * 0.5


def test_hash_all_length():
    family = ShiftMaskHashFamily(num_hashes=5, num_buckets=64, seed=0)
    assert len(family.hash_all(123)) == 5


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ShiftMaskHashFamily(num_hashes=0, num_buckets=16)
    with pytest.raises(ValueError):
        ShiftMaskHashFamily(num_hashes=2, num_buckets=0)


def test_make_hash_family_by_name():
    family = make_hash_family("shift_mask", 2, 32, seed=1)
    assert isinstance(family, ShiftMaskHashFamily)
    family = make_hash_family("multiply_shift", 2, 32, seed=1)
    assert isinstance(family, MultiplyShiftHashFamily)
    family = make_hash_family("tabulation", 2, 32, seed=1)
    assert isinstance(family, TabulationHashFamily)


def test_make_hash_family_unknown_name():
    with pytest.raises(ValueError, match="unknown hash family"):
        make_hash_family("md5", 2, 32)


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_collision_rate_is_low_for_row_addresses(family_cls):
    """Full-group collisions should be rare for a realistic row-address stream."""
    family = family_cls(num_hashes=4, num_buckets=512, seed=7)
    keys = list(range(0, 4096, 2))  # sequential even row IDs
    assert collision_rate(family, keys) < 0.01


def test_collision_rate_trivial_cases():
    family = ShiftMaskHashFamily(num_hashes=2, num_buckets=8, seed=0)
    assert collision_rate(family, []) == 0.0
    assert collision_rate(family, [42]) == 0.0
    # Identical keys always collide with themselves.
    assert collision_rate(family, [7, 7]) == 1.0


def test_distribution_is_roughly_uniform():
    """No single bucket should absorb a large share of sequential row IDs."""
    family = ShiftMaskHashFamily(num_hashes=1, num_buckets=256, seed=9)
    counts = [0] * 256
    total = 8192
    for key in range(total):
        counts[family.hash(0, key)] += 1
    assert max(counts) < total / 256 * 4
