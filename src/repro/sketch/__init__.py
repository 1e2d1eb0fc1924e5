"""Frequent-item-counting substrates used by RowHammer trackers.

This subpackage implements, from scratch, the three summary data structures
that the CoMeT paper and its comparison points are built on:

* :class:`~repro.sketch.count_min.CountMinSketch` and its conservative-update
  variant (:class:`~repro.sketch.count_min.ConservativeCountMinSketch`) —
  the structure underlying CoMeT's Counter Table (Section 2.3 of the paper).
* :class:`~repro.sketch.counting_bloom.CountingBloomFilter` — the structure
  underlying BlockHammer's RowBlocker tracker (Section 8.3).
* :class:`~repro.sketch.misra_gries.MisraGriesSummary` — the frequent-item
  algorithm underlying Graphene (Section 3.2 / 6).

All structures share the never-underestimate/possibly-overestimate contract
that the paper's security argument relies on, and each exposes an
``estimate`` method so the analysis code can compare their false-positive
behaviour (Figure 17).  Counters are plain Python lists and hashing is
plain integer arithmetic; there is one backend.
"""

from repro.sketch.hashes import (
    HashFamily,
    MultiplyShiftHashFamily,
    ShiftMaskHashFamily,
    TabulationHashFamily,
)
from repro.sketch.count_min import CountMinSketch, ConservativeCountMinSketch
from repro.sketch.counting_bloom import CountingBloomFilter
from repro.sketch.misra_gries import MisraGriesSummary

__all__ = [
    "HashFamily",
    "ShiftMaskHashFamily",
    "MultiplyShiftHashFamily",
    "TabulationHashFamily",
    "CountMinSketch",
    "ConservativeCountMinSketch",
    "CountingBloomFilter",
    "MisraGriesSummary",
]
