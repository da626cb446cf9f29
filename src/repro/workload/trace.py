"""Request traces: the record type, file I/O, and slotting utilities.

The Wikipedia trace the paper replays "logs the time and requested URL of
every single access".  Our canonical in-memory form is a time-sorted list of
:class:`TraceRecord`; on disk it is a plain CSV (optionally gzipped) with
``timestamp,key`` rows, so real traces can be converted in with a one-liner
and everything downstream (load-balancing evaluation, provisioning, hit-rate
sweeps) is trace-format agnostic.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TraceRecord:
    """One logged request: arrival time (seconds) and data key."""

    time: float
    key: str


def _open_maybe_gzip(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records as ``timestamp,key`` CSV; returns the row count.

    Keys containing commas or newlines are rejected (keep keys URL-safe, as
    Wikipedia page titles in trace URLs are).
    """
    target = Path(path)
    count = 0
    with _open_maybe_gzip(target, "w") as fh:
        for record in records:
            if "," in record.key or "\n" in record.key:
                raise ConfigurationError(
                    f"trace keys must not contain commas/newlines: {record.key!r}"
                )
            fh.write(f"{record.time:.6f},{record.key}\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a trace written by :func:`save_trace` (sorted check enforced)."""
    source = Path(path)
    records: List[TraceRecord] = []
    with _open_maybe_gzip(source, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                time_text, key = line.split(",", 1)
                when = float(time_text)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{source}:{line_no}: malformed trace line {line!r}"
                ) from exc
            records.append(TraceRecord(when, key))
    for i in range(1, len(records)):
        if records[i].time < records[i - 1].time:
            raise ConfigurationError(
                f"{source}: trace not time-sorted at row {i + 1}"
            )
    return records


def slot_counts(
    records: Sequence[TraceRecord], slot_seconds: float, num_slots: int
) -> List[int]:
    """Requests per slot — the paper's "count the number of requests inside
    every 1-hour time window" preprocessing for Fig. 4.

    Records outside ``[0, num_slots * slot_seconds)`` are ignored.
    """
    if slot_seconds <= 0:
        raise ConfigurationError(f"slot_seconds must be > 0, got {slot_seconds}")
    if num_slots < 1:
        raise ConfigurationError(f"num_slots must be >= 1, got {num_slots}")
    counts = [0] * num_slots
    for record in records:
        slot = int(record.time // slot_seconds)
        if 0 <= slot < num_slots:
            counts[slot] += 1
    return counts


def peak_to_valley(counts: Sequence[int]) -> float:
    """Peak/valley ratio of per-slot counts (paper: peak can be ~2x valley)."""
    nonzero = [c for c in counts if c > 0]
    if not nonzero:
        raise ConfigurationError("trace has no requests in any slot")
    return max(nonzero) / min(nonzero)
