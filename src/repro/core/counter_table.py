"""CoMeT's Counter Table (CT).

The CT is a Count-Min Sketch with conservative updates whose counters
saturate at the preventive refresh threshold ``NPR``.  Each DRAM bank has its
own CT (Section 7.2.1), and the CT is only ever reset in bulk — after a
periodic counter reset or an early preventive refresh — never per row,
because counters are shared between rows (Section 4).
"""

from __future__ import annotations

from typing import List

from repro.core.config import CoMeTConfig
from repro.sketch.count_min import ConservativeCountMinSketch, SketchConfig
from repro.sketch.hashes import ShiftMaskHashFamily


class CounterTable:
    """Per-bank hash-based activation counters (CMS-CU saturating at NPR)."""

    def __init__(self, config: CoMeTConfig, bank_seed: int = 0) -> None:
        self.config = config
        sketch_config = SketchConfig(
            num_hashes=config.num_hashes,
            counters_per_hash=config.counters_per_hash,
            counter_width_bits=config.counter_width_bits,
            seed=config.hash_seed + bank_seed,
            hash_kind="shift_mask",
        )
        hash_family = ShiftMaskHashFamily(
            config.num_hashes, config.counters_per_hash, seed=config.hash_seed + bank_seed
        )
        self._npr = config.npr
        self._sketch = ConservativeCountMinSketch(
            sketch_config, hash_family=hash_family, saturation_value=self._npr
        )

    # ------------------------------------------------------------------ #
    # CoMeT operations (Section 4.1)
    # ------------------------------------------------------------------ #
    def estimate(self, row: int) -> int:
        """Min-counter estimate of the row's activation count (never underestimates)."""
        return self._sketch.estimate(row)

    def increment(self, row: int) -> int:
        """Conservative-update increment of the row's counter group."""
        return self._sketch.update(row, 1)

    def observe(self, row: int) -> int:
        """Count one activation of a row that has no RAT entry, in one pass.

        Returns the row's estimate *before* this activation.  When the
        updated count stays below NPR the group is conservatively
        incremented; otherwise the counters are left as they are and the
        caller handles the aggressor (preventive refresh, then
        :meth:`saturate`).  Equivalent to :meth:`estimate` followed by a
        conditional :meth:`increment`, with one hash of the row.
        """
        return self._sketch.increment_below(row, self._npr)

    def saturate(self, row: int) -> None:
        """Set every counter in the row's group to NPR (after a preventive refresh)."""
        self._sketch.set_group(row, self._npr)

    def is_saturated(self, row: int) -> bool:
        """True when the row's estimate has reached NPR."""
        return self._sketch.estimate(row) >= self._npr

    def reset(self) -> None:
        """Bulk reset (periodic reset or early preventive refresh)."""
        self._sketch.reset()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counter_group(self, row: int) -> List[int]:
        return self._sketch.counter_group(row)

    def num_saturated_counters(self) -> int:
        return self._sketch.num_saturated_counters()

    def counters_snapshot(self) -> List[List[int]]:
        return self._sketch.counters_snapshot()

    def snapshot(self) -> dict:
        """Plain-data checkpoint (delegates to the underlying sketch)."""
        return self._sketch.snapshot()

    def restore(self, state: dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._sketch.restore(state)

    @property
    def npr(self) -> int:
        return self._npr

    @property
    def storage_bits(self) -> int:
        return self.config.ct_storage_bits_per_bank
