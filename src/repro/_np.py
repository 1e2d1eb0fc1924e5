"""Retired numpy switch, kept only as a constant.

The simulator is pure Python: the numpy sketch backend this module once
gated measured slower end to end and was removed.  ``HAVE_NUMPY`` stays
``False`` because the repository benchmark (``perfbench/run.py``) still
records it as ``host.have_numpy``; a later benchmark change drops the
metric, and this module with it.
"""

HAVE_NUMPY = False
