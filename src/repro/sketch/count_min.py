"""Count-Min Sketch and the conservative-update variant (CMS-CU).

These are faithful implementations of the structures described in Section 2.3
of the CoMeT paper:

* :class:`CountMinSketch` — a ``k × m`` counter array indexed by ``k`` hash
  functions.  ``update`` increments every counter of an item's counter group;
  ``estimate`` returns the minimum counter of the group.  The estimate never
  underestimates the true frequency and may overestimate it.
* :class:`ConservativeCountMinSketch` — CMS with conservative updates
  (Estan & Varghese): only the counters currently holding the group's minimum
  value are incremented, which reduces overestimation while preserving the
  never-underestimate property.

Both support counter saturation at a configurable ceiling (CoMeT's Counter
Table saturates counters at the preventive refresh threshold and never resets
individual counters) and bulk reset (CoMeT's periodic counter reset).

Counters live in one pure-Python list per hash row: every operation touches
the ``k`` counters of a single key, where an array library's per-element
access would only add boxing cost.
:meth:`ConservativeCountMinSketch.increment_below` is the single-pass form
CoMeT's Counter Table runs on every activation: one hash of the key, one
read of its counter group, then the conditional update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sketch.hashes import HashFamily, ShiftMaskHashFamily


@dataclass(frozen=True)
class SketchConfig:
    """Configuration of a Count-Min Sketch.

    Attributes
    ----------
    num_hashes:
        Number of hash functions (``k``, the number of counter rows).
    counters_per_hash:
        Number of counters per hash function (``m``, the row width).
    counter_width_bits:
        Width of each counter; counters saturate at ``2**width - 1`` unless a
        lower ``saturation_value`` is given at construction time.
    seed:
        Seed for the hash family.
    hash_kind:
        Name of the hash family (see :func:`repro.sketch.hashes.make_hash_family`).
    """

    num_hashes: int = 4
    counters_per_hash: int = 512
    counter_width_bits: int = 10
    seed: int = 0
    hash_kind: str = "shift_mask"

    @property
    def total_counters(self) -> int:
        return self.num_hashes * self.counters_per_hash

    @property
    def storage_bits(self) -> int:
        """Total storage of the counter array in bits."""
        return self.total_counters * self.counter_width_bits


class CountMinSketch:
    """Classic Count-Min Sketch over integer keys.

    Parameters
    ----------
    config:
        Sketch geometry and hashing configuration.
    hash_family:
        Optional pre-built hash family; when omitted a
        :class:`~repro.sketch.hashes.ShiftMaskHashFamily` is built from the
        config (matching CoMeT's hardware-style hashing).
    saturation_value:
        Optional ceiling for counters.  ``None`` means counters saturate at
        the maximum value representable in ``counter_width_bits``.
    """

    def __init__(
        self,
        config: SketchConfig,
        hash_family: Optional[HashFamily] = None,
        saturation_value: Optional[int] = None,
    ) -> None:
        self.config = config
        if hash_family is None:
            hash_family = ShiftMaskHashFamily(
                config.num_hashes, config.counters_per_hash, seed=config.seed
            )
        if hash_family.num_hashes != config.num_hashes:
            raise ValueError("hash family size does not match config.num_hashes")
        if hash_family.num_buckets != config.counters_per_hash:
            raise ValueError("hash family range does not match config.counters_per_hash")
        self.hash_family = hash_family
        max_representable = (1 << config.counter_width_bits) - 1
        if saturation_value is None:
            saturation_value = max_representable
        if saturation_value > max_representable:
            raise ValueError(
                f"saturation_value {saturation_value} does not fit in "
                f"{config.counter_width_bits}-bit counters"
            )
        self.saturation_value = saturation_value
        self._counters: List[List[int]] = [
            [0] * config.counters_per_hash for _ in range(config.num_hashes)
        ]
        self.total_updates = 0

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def counter_group(self, key: int) -> List[int]:
        """Return the counter indices (one per hash row) for ``key``."""
        return self.hash_family.hash_all(key)

    def estimate(self, key: int) -> int:
        """Return the (never-underestimating) frequency estimate for ``key``."""
        counters = self._counters
        return min(
            counters[row][column]
            for row, column in enumerate(self.hash_family.hash_all(key))
        )

    def update(self, key: int, amount: int = 1) -> int:
        """Record ``amount`` occurrences of ``key`` and return the new estimate."""
        if amount < 0:
            raise ValueError("Count-Min Sketch does not support negative updates")
        indices = self.hash_family.hash_all(key)
        self.total_updates += amount
        saturation = self.saturation_value
        counters = self._counters
        minimum = saturation
        for row, column in enumerate(indices):
            value = counters[row][column] + amount
            if value > saturation:
                value = saturation
            counters[row][column] = value
            if value < minimum:
                minimum = value
        return minimum

    def set_group(self, key: int, value: int) -> None:
        """Force every counter of ``key``'s group to ``value`` (clamped to saturation).

        CoMeT uses this when a row triggers a preventive refresh: the group's
        counters are set to the preventive refresh threshold so they remain a
        valid over-estimate for every other row sharing them.
        """
        value = min(value, self.saturation_value)
        counters = self._counters
        for row, column in enumerate(self.hash_family.hash_all(key)):
            if counters[row][column] < value:
                counters[row][column] = value

    def reset(self) -> None:
        """Reset every counter to zero (CoMeT's periodic reset / early refresh)."""
        for row in self._counters:
            row[:] = [0] * len(row)
        self.total_updates = 0

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def is_saturated(self, key: int) -> bool:
        """True when every counter in ``key``'s group is at the saturation value."""
        return self.estimate(key) >= self.saturation_value

    def counter_value(self, row: int, column: int) -> int:
        """Raw value of one counter (used by tests and analysis code)."""
        return self._counters[row][column]

    def counters_snapshot(self) -> List[List[int]]:
        """Deep copy of the counter array."""
        return [list(row) for row in self._counters]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data checkpoint of the mutable sketch state.

        Geometry, hashing and the saturation ceiling are construction-time
        constants and are not captured; ``restore`` assumes an identically
        configured instance.  The captured counters are plain lists of ints,
        so snapshots are picklable and JSON-clean.
        """
        return {
            "counters": self.counters_snapshot(),
            "total_updates": self.total_updates,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._counters = [list(row) for row in state["counters"]]
        self.total_updates = state["total_updates"]

    def max_counter(self) -> int:
        """Largest counter value currently stored."""
        return max(max(row) for row in self._counters)

    def num_saturated_counters(self) -> int:
        """Number of counters currently at the saturation value."""
        return sum(
            1 for row in self._counters for value in row if value >= self.saturation_value
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(k={self.config.num_hashes}, "
            f"m={self.config.counters_per_hash}, "
            f"saturation={self.saturation_value}, updates={self.total_updates})"
        )


class ConservativeCountMinSketch(CountMinSketch):
    """Count-Min Sketch with conservative updates (CMS-CU).

    On an update, only counters currently equal to the group minimum are
    incremented (and only up to ``old_minimum + amount``); counters already
    above that target are left untouched.  This is the variant CoMeT's
    Counter Table uses (Section 2.3, "Optimizations").
    """

    def update(self, key: int, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError("Count-Min Sketch does not support negative updates")
        indices = self.hash_family.hash_all(key)
        self.total_updates += amount
        counters = self._counters
        current = [counters[row][column] for row, column in enumerate(indices)]
        target = min(min(current) + amount, self.saturation_value)
        for (row, column), value in zip(enumerate(indices), current):
            if value < target:
                counters[row][column] = target
        # The counters at the old minimum were just raised to ``target``, so
        # the group's new minimum — the estimate — is ``target`` itself.
        return target

    def increment_below(self, key: int, limit: int) -> int:
        """Estimate ``key`` and conservatively add one unless that reaches ``limit``.

        The single-pass form of ``estimate`` followed by ``update(key, 1)``:
        the key is hashed once and its counter group read once.  Returns the
        group minimum *before* the update (what :meth:`estimate` returned).
        When ``minimum + 1 < limit`` the counters change exactly as
        ``update(key, 1)`` changes them; otherwise nothing changes and the
        caller handles the threshold crossing.
        """
        indices = self.hash_family.hash_all(key)
        counters = self._counters
        current = [row[column] for row, column in zip(counters, indices)]
        minimum = min(current)
        target = minimum + 1
        if target < limit:
            if target > self.saturation_value:
                target = self.saturation_value
            self.total_updates += 1
            for row, column, value in zip(counters, indices, current):
                if value < target:
                    row[column] = target
        return minimum
