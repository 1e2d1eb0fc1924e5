"""The pluggable work-queue backend interface and its registry.

A campaign is drained through a :class:`WorkQueue`: the runner ``put``\\ s
one :class:`WorkItem` per missing grid cell, any number of workers ``claim``
items under a lease and ``ack`` them once the result is safely in the
:class:`~repro.campaign.store.ResultStore`.  A worker that dies mid-cell
simply lets its lease expire; ``reclaim_expired`` returns the item to the
pending set and another worker re-executes it (results are deterministic,
so re-execution is always safe — at-least-once delivery is the contract,
exactly-once *storage* comes from the store's content addressing).

Backends register under a short name (``memory`` / ``sqlite``) via
:func:`register_backend` and are constructed through :func:`create_backend`
— the frontera pattern: one interface, interchangeable implementations,
one shared conformance suite (``tests/test_campaign_queue.py``) that every
backend must pass.

Ordering contract (shared by every backend):

* higher ``priority`` first;
* FIFO within a priority class (enqueue order, tracked by a per-queue
  monotonic sequence number);
* ``put`` deduplicates by ``key`` against pending, claimed *and* done
  items, so re-enqueueing a half-finished campaign is idempotent.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Type

#: Default lease duration (seconds) a claimed item is protected for.
DEFAULT_LEASE = 60.0


@dataclass(frozen=True)
class WorkItem:
    """One unit of campaign work: a spec hash plus its canonical payload.

    ``key`` is the cell's canonical spec hash (unique per experiment),
    ``payload`` the canonical spec JSON a worker re-materializes the
    :class:`~repro.experiment.spec.ExperimentSpec` from.  ``seq`` is
    assigned by the queue at ``put`` time and orders items within a
    priority class; callers leave it at the default.
    """

    key: str
    payload: str
    priority: int = 0
    seq: int = -1

    def with_seq(self, seq: int) -> "WorkItem":
        return replace(self, seq=seq)


class QueueCounts(NamedTuple):
    """Point-in-time population of a queue, by item state."""

    pending: int
    claimed: int
    done: int

    @property
    def outstanding(self) -> int:
        """Items not yet acked (the campaign is finished when this is 0)."""
        return self.pending + self.claimed


class WorkQueue(abc.ABC):
    """Abstract claim/ack work queue with lease-based crash recovery.

    Subclasses set the class attributes (``name`` registers the backend,
    ``persistent`` says whether items survive process death — the
    multi-process backends) and implement the five primitives.  ``clock``
    is injectable so lease expiry is testable without sleeping.
    """

    #: Registry name (e.g. ``"memory"``); set by subclasses.
    name: str = ""
    #: One-line description for the ``repro list`` catalog.
    description: str = ""
    #: Whether queue contents survive process death (multi-process safe).
    persistent: bool = False

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock

    # ------------------------------------------------------------------ #
    # Primitives every backend implements
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def put(self, items: Iterable[WorkItem]) -> int:
        """Enqueue items, deduplicating by key; returns how many were new."""

    @abc.abstractmethod
    def claim(
        self, worker: str, lease: float = DEFAULT_LEASE
    ) -> Optional[WorkItem]:
        """Atomically claim the best pending item for ``worker`` (or None).

        The claim is protected until ``clock() + lease``; the worker must
        ``ack`` (or the lease expire) before the item moves again.  No two
        concurrent claimers ever receive the same item.
        """

    @abc.abstractmethod
    def ack(self, key: str, worker: str) -> bool:
        """Mark a claimed item done.  Only the current lease holder may ack;
        returns False (and changes nothing) for stale workers whose lease
        was reclaimed and re-issued."""

    @abc.abstractmethod
    def reclaim_expired(self) -> int:
        """Return expired-lease items to pending; returns how many moved."""

    @abc.abstractmethod
    def counts(self) -> QueueCounts:
        """Current pending/claimed/done populations."""

    # ------------------------------------------------------------------ #
    # Conveniences
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.counts().pending

    @staticmethod
    def order_key(item: WorkItem) -> tuple:
        """Sort key implementing the shared ordering contract."""
        return (-item.priority, item.seq)


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
_BACKENDS: Dict[str, Type[WorkQueue]] = {}


def register_backend(cls: Type[WorkQueue]) -> Type[WorkQueue]:
    """Class decorator registering a :class:`WorkQueue` implementation."""
    if not cls.name:
        raise ValueError(f"backend {cls.__name__} must set a registry name")
    if cls.name in _BACKENDS:
        raise ValueError(f"queue backend {cls.name!r} is already registered")
    _BACKENDS[cls.name] = cls
    return cls


def queue_backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def queue_backend_catalog() -> List[Dict[str, object]]:
    """One catalog row per backend (the ``repro list`` section)."""
    return [
        {
            "backend": name,
            "persistent": _BACKENDS[name].persistent,
            "description": _BACKENDS[name].description,
        }
        for name in queue_backend_names()
    ]


def create_backend(name: str, **kwargs) -> WorkQueue:
    """Instantiate a registered backend by name.

    ``kwargs`` are forwarded to the backend constructor (``path`` for the
    persistent backends, ``clock`` everywhere).
    """
    try:
        cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(queue_backend_names())
        raise KeyError(
            f"unknown queue backend {name!r}; registered backends: {known}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "DEFAULT_LEASE",
    "QueueCounts",
    "WorkItem",
    "WorkQueue",
    "create_backend",
    "queue_backend_catalog",
    "queue_backend_names",
    "register_backend",
]
