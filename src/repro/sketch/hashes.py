"""Hash families used by the sketch-based trackers.

CoMeT's hardware implementation uses "simple hash functions that consist of
bit-shift and bit-mask operations, which are easy to implement in hardware"
(Section 4, "Key Components").  :class:`ShiftMaskHashFamily` models exactly
that.  Two additional families are provided for analysis and testing:

* :class:`MultiplyShiftHashFamily` — the classic universal multiply-shift
  scheme, useful as a statistically stronger reference point.
* :class:`TabulationHashFamily` — simple tabulation hashing, a 3-independent
  family often used when modelling counting Bloom filters (BlockHammer).

Every family is deterministic for a given seed so experiments are
reproducible.  The seed-derived constants of each family are built once per
``(num_hashes, seed)`` pair at module level and shared by every instance:
the per-bank trackers (BlockHammer builds two CBFs per bank, CoMeT one
Counter Table per bank) construct hundreds of families with identical
parameters, and regenerating the constants — or, for tabulation, 4x256
random table entries per hash — on every construction dominated tracker
setup (micro-benchmarked in ``benchmarks/test_micro_address_keys.py``).

Hashing is plain Python integer arithmetic: each sketch operation hashes one
key, and :meth:`HashFamily.hash_all` returns its whole counter group in one
call.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import List, Sequence

_MASK64 = (1 << 64) - 1

# Seed salts of the cached constant builders below.
_SHIFT_MASK_MULT = 0x9E3779B9
_SHIFT_MASK_ADD = 0xC0FFEE
_MULTIPLY_SHIFT_MULT = 0x51ED2701
_MULTIPLY_SHIFT_ADD = 17
_TABULATION_MULT = 0xDEADBEEF
_TABULATION_ADD = 3


@lru_cache(maxsize=None)
def _shift_mask_params(num_hashes: int, seed: int):
    """(shifts, odd constants) of a shift-mask family, shared across instances."""
    rng = random.Random(seed * _SHIFT_MASK_MULT + _SHIFT_MASK_ADD)
    # Distinct shifts spread hash functions over different bit ranges of
    # the row address; odd multipliers decorrelate sequential addresses.
    shifts = tuple((seed + 3 * i + 1) % 17 + 1 for i in range(num_hashes))
    constants = tuple(rng.getrandbits(32) | 1 for _ in range(num_hashes))
    return shifts, constants


@lru_cache(maxsize=None)
def _multiply_shift_params(num_hashes: int, seed: int):
    """(multipliers, addends) of a multiply-shift family, shared across instances."""
    rng = random.Random(seed * _MULTIPLY_SHIFT_MULT + _MULTIPLY_SHIFT_ADD)
    multipliers = tuple(rng.getrandbits(64) | 1 for _ in range(num_hashes))
    addends = tuple(rng.getrandbits(64) for _ in range(num_hashes))
    return multipliers, addends


@lru_cache(maxsize=None)
def _tabulation_tables(num_hashes: int, seed: int):
    """The 4x256 per-hash lookup tables of a tabulation family (read-only)."""
    rng = random.Random(seed * _TABULATION_MULT + _TABULATION_ADD)
    return tuple(
        tuple(
            tuple(rng.getrandbits(32) for _ in range(256))
            for _ in range(TabulationHashFamily._NUM_CHARS)
        )
        for _ in range(num_hashes)
    )


class HashFamily(ABC):
    """A family of ``num_hashes`` hash functions mapping ints to ``[0, num_buckets)``.

    Parameters
    ----------
    num_hashes:
        Number of independent hash functions in the family.
    num_buckets:
        Size of the output range of each hash function.
    seed:
        Seed controlling the (deterministic) construction of the family.
    """

    def __init__(self, num_hashes: int, num_buckets: int, seed: int = 0) -> None:
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        self.num_hashes = num_hashes
        self.num_buckets = num_buckets
        self.seed = seed

    @abstractmethod
    def hash(self, index: int, key: int) -> int:
        """Return the value of hash function ``index`` applied to ``key``."""

    def hash_all(self, key: int) -> List[int]:
        """Return ``[h_0(key), ..., h_{k-1}(key)]``."""
        return [self.hash(i, key) for i in range(self.num_hashes)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(num_hashes={self.num_hashes}, "
            f"num_buckets={self.num_buckets}, seed={self.seed})"
        )


class ShiftMaskHashFamily(HashFamily):
    """Hardware-style hash functions built from bit shifts, XOR folding and masking.

    Hash function *i* right-shifts the key by a per-function shift amount,
    XOR-folds the shifted key with the unshifted key, adds a per-function odd
    constant, and reduces modulo the number of buckets.  This mirrors the
    "bit-shift and bit-mask" functions CoMeT implements in its Counter Table
    while still distributing typical row-address streams well.
    """

    def __init__(self, num_hashes: int, num_buckets: int, seed: int = 0) -> None:
        super().__init__(num_hashes, num_buckets, seed)
        self._shifts, self._constants = _shift_mask_params(num_hashes, seed)
        self._pairs = tuple(zip(self._shifts, self._constants))

    def hash(self, index: int, key: int) -> int:
        shift = self._shifts[index]
        constant = self._constants[index]
        folded = (key ^ (key >> shift)) & _MASK64
        mixed = (folded * constant) & _MASK64
        return (mixed >> 7) % self.num_buckets

    def hash_all(self, key: int) -> List[int]:
        buckets = self.num_buckets
        return [
            ((((key ^ (key >> shift)) & _MASK64) * constant & _MASK64) >> 7) % buckets
            for shift, constant in self._pairs
        ]


class MultiplyShiftHashFamily(HashFamily):
    """Universal multiply-shift hashing (Dietzfelbinger et al.).

    ``h_a(x) = ((a * x) mod 2^64) >> (64 - p)`` mapped into ``num_buckets``.
    Provides strong universality guarantees; used as a reference tracker
    configuration in sensitivity tests.
    """

    def __init__(self, num_hashes: int, num_buckets: int, seed: int = 0) -> None:
        super().__init__(num_hashes, num_buckets, seed)
        self._multipliers, self._addends = _multiply_shift_params(num_hashes, seed)
        self._pairs = tuple(zip(self._multipliers, self._addends))

    def hash(self, index: int, key: int) -> int:
        a = self._multipliers[index]
        b = self._addends[index]
        value = (a * (key & _MASK64) + b) & _MASK64
        return (value >> 17) % self.num_buckets

    def hash_all(self, key: int) -> List[int]:
        buckets = self.num_buckets
        masked = key & _MASK64
        return [((a * masked + b & _MASK64) >> 17) % buckets for a, b in self._pairs]


class TabulationHashFamily(HashFamily):
    """Simple tabulation hashing over 8-bit characters of a 32-bit key.

    Each hash function owns four random lookup tables of 256 entries; the
    hash of a key is the XOR of the table entries selected by the key's
    bytes.  3-independent and very well behaved in practice.
    """

    _NUM_CHARS = 4

    def __init__(self, num_hashes: int, num_buckets: int, seed: int = 0) -> None:
        super().__init__(num_hashes, num_buckets, seed)
        self._tables = _tabulation_tables(num_hashes, seed)

    def hash(self, index: int, key: int) -> int:
        tables = self._tables[index]
        value = 0
        k = key
        for char_index in range(self._NUM_CHARS):
            value ^= tables[char_index][k & 0xFF]
            k >>= 8
        return value % self.num_buckets


def make_hash_family(
    kind: str, num_hashes: int, num_buckets: int, seed: int = 0
) -> HashFamily:
    """Factory for hash families by name (``shift_mask``, ``multiply_shift``, ``tabulation``)."""
    families = {
        "shift_mask": ShiftMaskHashFamily,
        "multiply_shift": MultiplyShiftHashFamily,
        "tabulation": TabulationHashFamily,
    }
    if kind not in families:
        raise ValueError(f"unknown hash family {kind!r}; expected one of {sorted(families)}")
    return families[kind](num_hashes, num_buckets, seed)


def collision_rate(family: HashFamily, keys: Sequence[int]) -> float:
    """Fraction of key pairs that collide on *all* hash functions of ``family``.

    Used by tests and the false-positive analysis to sanity-check that a hash
    family spreads realistic row-address streams.
    """
    signature_counts: dict = {}
    for key in keys:
        signature = tuple(family.hash_all(key))
        signature_counts[signature] = signature_counts.get(signature, 0) + 1
    n = len(keys)
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return 0.0
    colliding_pairs = sum(c * (c - 1) // 2 for c in signature_counts.values())
    return colliding_pairs / total_pairs
