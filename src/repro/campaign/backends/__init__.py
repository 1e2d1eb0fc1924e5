"""Registered :class:`~repro.campaign.queue.WorkQueue` implementations.

Importing this package registers both backends:

* ``memory`` — in-process FIFO/priority heap; fastest, not persistent.
* ``sqlite`` — single-file SQLite database, claims inside ``BEGIN
  IMMEDIATE`` transactions; the persistent multi-process backend.
"""

from repro.campaign.backends.memory import MemoryQueue
from repro.campaign.backends.sqlite import SqliteQueue

__all__ = ["MemoryQueue", "SqliteQueue"]
