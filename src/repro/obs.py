"""One timeline of what the control plane did.

A transition's begin, end or rollback and a feedback controller's forced
capacity or vetoed scale-down are each one :class:`Event`, emitted where
the simulator and the live tier share the decision, so both write the
same record.  Nothing is emitted per request.  :func:`emit` drops events
unless a :func:`recording` block installed a :class:`Timeline`.  Field
values are JSON-plain, so a timeline serializes one event per line as is.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Event:
    """One control-plane fact: *kind* happened at time *t*."""

    t: float
    kind: str
    fields: Dict[str, Any]


class Timeline:
    """The events emitted while this timeline was installed, oldest first."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def of(self, kind: str) -> List[Event]:
        """The events of one *kind*, in order."""
        return [event for event in self.events if event.kind == kind]


#: the installed timeline; ``None`` drops every event
_current: Optional[Timeline] = None


def emit(kind: str, t: float, **fields: Any) -> None:
    """Record one event on the installed timeline (or drop it)."""
    if _current is not None:
        _current.events.append(Event(t, kind, fields))


@contextmanager
def recording(timeline: Optional[Timeline] = None) -> Iterator[Timeline]:
    """Install *timeline* (a new one by default) for the block, then
    restore whichever was installed before."""
    global _current
    previous = _current
    _current = timeline if timeline is not None else Timeline()
    try:
        yield _current
    finally:
        _current = previous
