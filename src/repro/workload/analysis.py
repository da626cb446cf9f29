"""Trace analysis — characterizing a request trace.

These tools measure the properties of a trace (e.g. the converted
WikiBench trace) that the experiments care about.  They describe a trace;
nothing calibrates the synthetic generator from them:

* :func:`fit_zipf_alpha` — the popularity skew exponent;
* :func:`interarrival_cv` — burstiness of request arrivals;
* :func:`rate_envelope` — the smoothed requests/s curve (drives the
  provisioning loop);
* :func:`summarize` — everything at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.trace import TraceRecord


def fit_zipf_alpha(
    records: Sequence[TraceRecord], max_rank: int = 1000
) -> float:
    """Least-squares Zipf exponent from the rank-frequency log-log line.

    Fits ``log(freq) = -alpha * log(rank) + c`` over the top *max_rank*
    keys (the head is where Zipf behaviour is cleanest; the tail is
    sampling noise).
    """
    if not records:
        raise ConfigurationError("empty trace")
    counts = Counter(record.key for record in records)
    frequencies = sorted(counts.values(), reverse=True)[:max_rank]
    if len(frequencies) < 3:
        raise ConfigurationError(
            "need at least 3 distinct keys to fit a Zipf exponent"
        )
    ranks = np.arange(1, len(frequencies) + 1, dtype=np.float64)
    log_rank = np.log(ranks)
    log_freq = np.log(np.asarray(frequencies, dtype=np.float64))
    slope, _intercept = np.polyfit(log_rank, log_freq, 1)
    return float(-slope)


def interarrival_cv(records: Sequence[TraceRecord]) -> float:
    """The coefficient of variation of interarrival times (1.0 for
    Poisson arrivals, higher for bursty ones)."""
    if len(records) < 2:
        raise ConfigurationError("need at least 2 records")
    times = np.asarray([record.time for record in records])
    gaps = np.diff(times)
    if np.any(gaps < 0):
        raise ConfigurationError("trace is not time-sorted")
    mean = float(gaps.mean())
    return float(gaps.std() / mean) if mean else 0.0


def rate_envelope(
    records: Sequence[TraceRecord], window_seconds: float
) -> List[float]:
    """Requests per second in each consecutive window."""
    if window_seconds <= 0:
        raise ConfigurationError(
            f"window_seconds must be > 0, got {window_seconds}"
        )
    if not records:
        return []
    counts: Dict[int, int] = {}
    for record in records:
        slot = int(record.time // window_seconds)
        counts[slot] = counts.get(slot, 0) + 1
    last = max(counts)
    return [counts.get(i, 0) / window_seconds for i in range(last + 1)]


@dataclass(frozen=True)
class TraceSummary:
    """A trace's size, rate shape, popularity skew and burstiness."""

    requests: int
    distinct_keys: int
    mean_rate: float
    peak_to_valley: float
    zipf_alpha: float
    interarrival_cv: float


def summarize(
    records: Sequence[TraceRecord], window_seconds: float = 60.0
) -> TraceSummary:
    """One-call characterization of a trace."""
    if len(records) < 2:
        raise ConfigurationError("need at least 2 records")
    duration = records[-1].time - records[0].time
    envelope = [r for r in rate_envelope(records, window_seconds) if r > 0]
    peak_to_valley = (
        max(envelope) / min(envelope) if envelope else float("nan")
    )
    return TraceSummary(
        requests=len(records),
        distinct_keys=len({record.key for record in records}),
        mean_rate=len(records) / duration if duration > 0 else math.inf,
        peak_to_valley=peak_to_valley,
        zipf_alpha=fit_zipf_alpha(records),
        interarrival_cv=interarrival_cv(records),
    )
