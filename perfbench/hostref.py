"""Host-speed reference: a fixed pure-Python kernel timed next to every sample.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
over minutes (other tenants, frequency scaling); CPU time drifts with wall
time, so neither can be compared across runs as it is.  The runner
therefore times this kernel right before and right after every unit and
every group of set-ups and reports *normalized seconds*:

    normalized = measured * REF_S / mean(kernel before, kernel after)

i.e. the time the sample would take on a host that runs the kernel in
``REF_S`` seconds.  The kernel touches nothing of the program, so a change
to the program moves the sample and not the kernel, while a slow stretch of
the host moves both.

The kernel has three parts, because the host's slow stretches do not slow
every kind of work alike.  The first is the data plane's mix of operations
on a small working set: small-object allocation, attribute and dict
access, a bounded heap of tuples (the event heap, packet objects, table
lookups).  The second chases pointers at random through a 40 MB list of
int objects, like the simulator's walks over its object graph, which
feel contention for the shared caches and memory.  The third is the
control plane's: formatting prefix strings, building tuples and lists,
filling a dict and dropping it whole.  Measured on a 2-vCPU shared host,
over five minutes of ``run_e5`` units, the medians of 12-unit windows of
the raw unit time ranged from 0.86x to 1.27x of their overall median;
normalized by the first part alone 0.89x–1.13x, by the first two
0.92x–1.08x.  Over four and a half minutes of churn blocks, 5-block
windows ranged 0.88x–1.23x raw, 0.94x–1.08x by the first two parts and
0.94x–1.06x by all three.

The list stays allocated for the whole run; ``BUFFER_MB`` is what it added
to the resident set when it was built, which the runner takes off the
peak RSS it reports.
"""

from __future__ import annotations

import gc
import heapq
import resource
from time import perf_counter
from typing import Any

REF_S = 0.09                 # normalized seconds per kernel call
_MIX_ITERATIONS = 24_000     # each part about 0.03 s on a quiet 2-vCPU host
_CHASE_STEPS = 75_000
_ALLOC_ITERATIONS = 30_000
_CHASE_SIZE = 1 << 20        # list entries; the mask below needs a power of 2


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


_before = _rss_mb()
_CHASE = list(range(_CHASE_SIZE))   # ints past 256 are distinct heap objects
BUFFER_MB = max(_rss_mb() - _before, 0.0)
del _before


class _Obj:
    __slots__ = ("key", "slot", "prev")


def kernel_seconds() -> float:
    """Run the reference kernel once; return its wall time in seconds.

    The cyclic collector is off meanwhile (the kernel makes no cycles), so
    its time does not depend on how many objects the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _mix()
        _chase()
        _alloc()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _mix() -> None:
    heap: list[tuple[int, int, _Obj]] = []
    table: dict[int, _Obj] = {}
    for i in range(_MIX_ITERATIONS):
        obj = _Obj()
        obj.key = i
        obj.slot = i & 255
        last = table.get(obj.slot)
        obj.prev = -1 if last is None else last.key
        table[obj.slot] = obj
        heapq.heappush(heap, ((i * 7919) % 1_000_003, i, obj))
        if len(heap) > 512:
            heapq.heappop(heap)


def _chase() -> int:
    items, mask = _CHASE, _CHASE_SIZE - 1
    idx = total = 1
    for _ in range(_CHASE_STEPS):
        idx = (idx * 1103515245 + 12345) & mask
        total += items[idx]
    return total


def _alloc() -> None:
    table: dict[tuple[str, int], list[Any]] = {}
    for i in range(_ALLOC_ITERATIONS):
        key = ("10.%d.%d.0/24" % (i & 255, (i >> 8) & 255), i & 7)
        table[key] = [i, key]
        if len(table) > 4096:
            table.clear()


def factor(before: float, after: float) -> float:
    """Normalized seconds per measured second for a sample bracketed by
    kernel runs of ``before`` and ``after`` seconds."""
    return REF_S / ((before + after) / 2.0)
