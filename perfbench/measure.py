"""Host-side measurement helpers: host-speed probes, tail statistics, spans, memory.

Nothing here imports the simulator, so the helpers load before ``src`` is
on the path and keep working when it is missing.
"""

from __future__ import annotations

import heapq
import math
import resource
import signal
import time
from typing import Callable, Dict, List, Sequence, Tuple


class _Cell:
    __slots__ = ("row", "count")

    def __init__(self, row: int) -> None:
        self.row = row
        self.count = 0


def _bump(cell: _Cell, table: Dict[int, int], key: int) -> int:
    cell.count += 1
    table[key] = table.get(key, 0) + cell.count
    return cell.count


def probe() -> float:
    """CPU seconds taken by a fixed pure-Python loop (the host-speed probe).

    The loop mixes the operations the simulator's interpreter time goes to:
    attribute reads and writes on slotted objects, dict get/set, small
    function calls, tuple creation and a bounded heap.  Its work never
    changes, so its time moves only with the speed of the host.  It takes
    about half a millisecond, short enough to run inside a timer signal.
    It is timed in thread CPU time, so time spent waiting for a CPU (for
    instance behind campaign workers) does not count: only how fast the
    host executes once the probe runs.
    """
    start = time.thread_time()
    table: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    cells = [_Cell(row) for row in range(64)]
    x = 12345
    total = 0
    for step in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += _bump(cells[x & 63], table, (x >> 6) & 1023)
        heapq.heappush(heap, (x & 0xFFFF, step))
        if len(heap) > 32:
            heapq.heappop(heap)
    elapsed = time.thread_time() - start
    if total <= 0:  # keeps the loop's result live
        raise RuntimeError("host-speed probe produced no work")
    return elapsed


class HostSampler:
    """Samples host speed *during* a run, from a timer signal.

    Host speed on a shared machine drifts within a single run, so a probe
    timed before and after a run explains only part of the run's slowdown.
    Inside this context a ``SIGALRM`` fires every ``interval`` seconds of
    wall time and its handler times one :func:`probe`; the mean probe time
    is the host's average speed over the run, and the handler's own time is
    kept so it can be taken out of every span it fell into.  Interval
    timers are not inherited across ``fork``, so worker processes started
    inside the context are never interrupted.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.probes: List[float] = []
        self.busy: List[Tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.busy.append((start, time.perf_counter()))

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_within(self, start: float, end: float) -> float:
        """Seconds the handler ran inside ``[start, end]``."""
        return math.fsum(
            max(0.0, min(end, b) - max(start, a)) for a, b in self.busy
        )

    def mean_probe(self) -> float:
        return math.fsum(self.probes) / len(self.probes) if self.probes else math.nan


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``.  With ``2 * beyond + 1`` or
    fewer samples that percentile would not lie above the median, so the
    maximum (percentile 100) is returned instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 2 * beyond + 1:
        return ordered[-1], 100.0, count
    index = count - beyond - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def rate(count: float, seconds: float) -> float:
    """``count / seconds``, or 0 where the layer spent no time."""
    return count / seconds if seconds > 0 else 0.0


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident memory of this process in MiB.

    ``children > 0`` adds that many copies of the largest peak among the
    finished, waited-for child processes: an upper bound for a run whose
    worker processes were alive at the same time.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        own += children * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


class Spans:
    """Host-time spans around public calls, kept in memory.

    :meth:`wrap` replaces one method of one instance with a timing shim, so
    the program's own code is never edited: only the object the benchmark
    hands to the program records its calls.
    """

    def __init__(self) -> None:
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}
        self.keyed_ends: Dict[str, Dict[str, float]] = {}

    def add(self, label: str, start: float, end: float) -> None:
        self.intervals.setdefault(label, []).append((start, end))

    def wrap(
        self,
        obj: object,
        method: str,
        label: str,
        key_of: Callable[[tuple, object], object] = None,
    ) -> None:
        """Time every call of ``obj.method``; ``key_of(args, result)``, when
        given, names the call so its end time can be looked up later."""
        inner = getattr(obj, method)
        ends = self.keyed_ends.setdefault(label, {})

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = inner(*args, **kwargs)
            end = time.perf_counter()
            self.add(label, start, end)
            if key_of is not None:
                key = key_of(args, result)
                if key is not None:
                    ends[key] = end
            return result

        setattr(obj, method, timed)

    def durations(self, label: str, sampler: "HostSampler" = None) -> List[float]:
        """Span lengths, less the sampler's handler time inside each."""
        return [
            end - start - (sampler.busy_within(start, end) if sampler else 0.0)
            for start, end in self.intervals.get(label, [])
        ]

    def total(self, label: str, sampler: "HostSampler" = None) -> float:
        return math.fsum(self.durations(label, sampler))
