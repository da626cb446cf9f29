"""DB-path admission control for the retrieval engines (priority tiers).

Under overload the retrieval path splits into two priority tiers:

* **Always served** — local/hot-key hits and cache-tier hits.  They cost
  microseconds, complete before any database decision is made, and
  shedding them would save nothing.
* **Sheddable** — database-path work (misses, false positives, remap
  misses during a transition).  Each DB read occupies a backend queue
  slot for milliseconds; past saturation, admitting more of them only
  grows the queue and blows *every* request's latency (the Fig. 9
  mechanism).  Refusing the excess keeps the admitted requests fast.

:class:`VirtualQueueAdmission` is consulted by
:class:`~repro.core.retrieval.RetrievalEngine` immediately before it
would yield ``ReadDatabase``; a refusal turns the outcome into
``FetchPath.SHED`` (value ``None`` — *not served*, unlike
``DEGRADED_DB``, which is served correctly at extra latency cost).  The
driver reports each DB read's completion back via
:meth:`~VirtualQueueAdmission.db_finished`; the queue depth at ``now`` is
the number of admitted reads that have not yet completed on the virtual
clock, mirroring the sim database's FIFO service queue without touching
it.
"""

from __future__ import annotations

import heapq
from typing import List

__all__ = ["VirtualQueueAdmission"]


class VirtualQueueAdmission:
    """Admission bounded by virtual outstanding completions (simulator).

    The sim database answers each read with a *completion time* on the
    virtual clock; a read is outstanding while ``completion > now``.
    Admission refuses when ``max_depth`` reads are already outstanding,
    computed without wall time so the sim-vs-live parity suites extend to
    overload.  It keeps no count of its own: each refusal is the engine's
    :attr:`~repro.core.retrieval.FetchPath.SHED` count.

    Args:
        max_depth: outstanding DB reads allowed before shedding.
    """

    def __init__(self, max_depth: int = 16) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._completions: List[float] = []  # min-heap of completion times
        # Admitted reads whose completion time has not been reported yet.
        # Without this, every key of one batch would pass the depth check
        # before the first read's ``db_finished`` lands — the bound must
        # hold *within* a batch, not just between requests.
        self._pending = 0

    def admit_db(self, now: float) -> bool:
        """May one database read start at *now*?  A refusal is final for
        this request — the engine sheds it, it does not queue."""
        while self._completions and self._completions[0] <= now:
            heapq.heappop(self._completions)
        if len(self._completions) + self._pending >= self.max_depth:
            return False
        self._pending += 1
        return True

    def db_finished(self, completed: float) -> None:
        """One admitted read finished at *completed*, its virtual
        completion time."""
        self._pending = max(0, self._pending - 1)
        heapq.heappush(self._completions, completed)
