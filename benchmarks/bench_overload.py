"""Overload bench — the overload-armor goodput/recovery gate.

Open-loop 5x-capacity offered load with an injected retry storm over a
mid-storm scale-down, driven against the deterministic simulator (the
sim database's FIFO service queue is the honest load-to-latency
coupling: past saturation, every admitted read piles queueing delay on
every later one — the Fig. 9 spike mechanism).  Two scenarios A/B the
armor end to end:

* ``unarmored`` — no admission control, clients retry every shed or
  over-SLO answer unconditionally (the classic retry storm): the DB
  backlog grows without bound during the storm and is still draining
  long into the recovery phase;
* ``armored`` — :class:`~repro.resilience.VirtualQueueAdmission` bounds
  outstanding DB work (excess misses shed as ``FetchPath.SHED``; hits
  are always served) and a :class:`RetryBudget` caps client retries at
  a fraction of request volume, so the storm cannot amplify.  The budget
  models the clients, not the tier, so it lives here beside
  :class:`_ClientDriver`, its one caller.

A :class:`~repro.provisioning.health.ClusterHealthMonitor` and a
:class:`~repro.provisioning.controller.DelayFeedbackController` observe
the armored run per 1 s slot, fed the *median* served latency — which
stays low throughout (hits dominate), proving the delay signal alone
under-reports overload and the shed-rate signal is what closes the loop.

**Gates** (asserted in :func:`run_bench` and therefore in CI):

* armored goodput (served within the 1 s SLO) during the 5x storm stays
  >= 70% of the baseline tier's served rate;
* p99 of *admitted* storm requests stays bounded (<= 2.5 s) while the
  unarmored p99 explodes;
* armored retry volume respects the budget — amplification
  <= 1 + ratio + epsilon — and stays under the unbudgeted scenario's;
* after the storm clears, armored p99 recovers to ~baseline within the
  recovery window while the unarmored tier is still digesting backlog;
* the controller scales up on sustained shedding and back down after.

Results go to ``BENCH_overload.json``; ``--check`` is the CI ratchet —
it re-runs the bench and fails (exit 1) if the armored storm goodput
ratio regressed more than 15% against the committed JSON.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks import _ratchet  # noqa: E402
from benchmarks.conftest import fmt_row  # noqa: E402
from repro import obs  # noqa: E402
from repro.bloom.config import optimal_config  # noqa: E402
from repro.cache.cluster import CacheCluster  # noqa: E402
from repro.core.retrieval import FetchPath  # noqa: E402
from repro.core.router import ProteusRouter  # noqa: E402
from repro.database.cluster import DatabaseCluster  # noqa: E402
from repro.provisioning.controller import DelayFeedbackController  # noqa: E402
from repro.provisioning.health import ClusterHealthMonitor  # noqa: E402
from repro.resilience import VirtualQueueAdmission  # noqa: E402
from repro.web.frontend import WebServer  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_overload.json"

BLOOM = optimal_config(2000)
NUM_CACHE = 4
NUM_DB_SHARDS = 2
HOT_KEYS = 150
SEED = 2024

#: phase schedule (virtual seconds) — baseline at tier capacity, a 5x
#: flash crowd with a mid-storm scale-down, then back to baseline rate
BASE_RATE = 100.0
STORM_RATE = 5 * BASE_RATE
WARMUP_RATE = 25.0
BASELINE_SECONDS = 8.0
STORM_SECONDS = 12.0
RECOVERY_SECONDS = 15.0
SCALE_DOWN_AFTER = 4.0  # into the storm
DRAIN_TTL = 5.0

#: client model
SLO_SECONDS = 1.0       # answers slower than this are not goodput
MAX_RETRIES = 2         # per original request
RETRY_DELAY = 0.05
RETRY_RATIO = 0.2       # armored budget: retries per request
RETRY_MIN_RATE = 1.0    # armored budget: trickle reserve per second
#: a retry budget's balance cap: how many retries a long quiet stretch can
#: bank for one thundering moment
RETRY_BURST = 100.0

#: admission bound: outstanding DB reads the armored tier tolerates
ADMISSION_DEPTH = 16

#: gates
GATE_GOODPUT_RATIO = 0.70   # armored storm goodput vs baseline rate
GATE_P99_ADMITTED = 2.5     # seconds, armored storm p99 of served
GATE_RECOVERY_FACTOR = 3.0  # armored recovery p99 vs baseline p99
RATCHET_TOLERANCE = 0.15    # --check fails beyond -15% goodput ratio


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _arrivals(
    rng: random.Random,
    start: float,
    rate: float,
    duration: float,
    hot_fraction: float,
    cold_prefix: str,
) -> List[Tuple[float, str]]:
    """Open-loop arrival list: uniform spacing, seeded hot/cold mix.
    Cold keys are unique (a flash crowd is new pages, not a hot spot)."""
    events = []
    count = int(rate * duration)
    for i in range(count):
        t = start + i / rate
        if rng.random() < hot_fraction:
            key = f"hot:{rng.randrange(HOT_KEYS)}"
        else:
            key = f"{cold_prefix}:{i}"
        events.append((t, key))
    return events


class RetryBudget:
    """Token bucket capping a client fleet's retries at a fraction of
    recent requests.

    When every client retries, the retries *are* the overload (the
    metastable retry-storm collapse); backoff alone does not break that
    loop.  Every first attempt calls :meth:`record_request` (depositing
    ``ratio`` tokens, up to ``RETRY_BURST``); every retry must win
    :meth:`allow_retry` (withdrawing one token).  The balance decays with
    half-life ``halflife`` so "recent volume" means the last few
    half-lives, not all of history, and fleet-wide retries never exceed
    ``ratio x offered load`` plus a small reserve that accrues at
    ``min_retries_per_second`` — without it, ``ratio < 1`` would starve a
    client trickling single requests forever.  Amplification is therefore
    bounded at ``1 + ratio`` however badly the tier fails.

    Every method takes the caller's ``now`` and the clock starts at the
    first one it is given, so the simulated clients drive it on virtual
    time.

    Args:
        ratio: tokens deposited per recorded request — the steady-state
            retries-per-request cap.  Finagle ships 0.2; so do we.
        min_retries_per_second: reserve accrual rate, so idle or
            low-volume clients keep a minimal retry allowance.
        halflife: seconds for half the balance to decay — the width of
            the "recent volume" window.
    """

    def __init__(
        self,
        ratio: float = 0.2,
        min_retries_per_second: float = 1.0,
        halflife: float = 10.0,
    ) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        if min_retries_per_second < 0:
            raise ValueError(
                "min_retries_per_second must be >= 0, "
                f"got {min_retries_per_second}"
            )
        if halflife <= 0:
            raise ValueError(f"halflife must be > 0, got {halflife}")
        self.ratio = ratio
        self.min_retries_per_second = min_retries_per_second
        self.halflife = halflife
        self._balance = 0.0
        self._reserve = 0.0
        #: the last ``now`` seen; the clock starts at the first one
        self._last: Optional[float] = None
        #: retries granted / refused (lifetime, for reports)
        self.granted = 0
        self.denied = 0
        #: requests recorded (lifetime)
        self.requests = 0

    def _advance(self, now: float) -> None:
        """Decay the balance and accrue the reserve up to *now*."""
        if self._last is None:
            self._last = now
        elapsed = now - self._last
        if elapsed <= 0:
            return
        self._balance *= 0.5 ** (elapsed / self.halflife)
        self._reserve = min(
            1.0, self._reserve + elapsed * self.min_retries_per_second
        )
        self._last = now

    def record_request(self, now: float, n: int = 1) -> None:
        """Deposit for *n* first attempts (NOT retries) just issued."""
        self._advance(now)
        self.requests += n
        self._balance = min(RETRY_BURST, self._balance + self.ratio * n)

    def allow_retry(self, now: float) -> bool:
        """Withdraw one retry token; ``False`` means *do not retry*.

        Spends the deposited balance first, then the trickle reserve.
        A refusal is final for this attempt — the client gives up on it,
        it does not wait and ask again.
        """
        self._advance(now)
        if self._balance >= 1.0:
            self._balance -= 1.0
            self.granted += 1
            return True
        if self._reserve >= 1.0:
            self._reserve -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False


class _ClientDriver:
    """Open-loop client with a retry loop: shed or over-SLO answers are
    retried (up to ``MAX_RETRIES``), gated by the retry budget when one
    is armed — the storm-amplification dial the bench A/Bs."""

    def __init__(
        self,
        web: WebServer,
        budget: Optional[RetryBudget],
        retry_unbudgeted: bool,
    ) -> None:
        self.web = web
        self.budget = budget
        self.retry_unbudgeted = retry_unbudgeted
        self.requests = 0
        self.attempts = 0
        self.retries = 0
        #: (arrival, latency-or-None) per attempt; None = shed
        self.records: List[Tuple[float, Optional[float]]] = []
        self._tiebreak = itertools.count()

    def run(
        self,
        arrivals: List[Tuple[float, str]],
        on_slot: Optional[Callable[[float, List[float]], None]] = None,
        slot_seconds: float = 1.0,
    ) -> List[Tuple[float, Optional[float]]]:
        """Drive every arrival (plus retries) in time order; returns this
        phase's records.  *on_slot* fires at each slot edge with the
        slot's served latencies (the controller's measurement feed)."""
        heap: List[Tuple[float, int, str, int]] = []
        for t, key in arrivals:
            heapq.heappush(heap, (t, next(self._tiebreak), key, 0))
        phase_records: List[Tuple[float, Optional[float]]] = []
        slot_latencies: List[float] = []
        next_slot = (arrivals[0][0] if arrivals else 0.0) + slot_seconds
        while heap:
            t, _, key, tries = heapq.heappop(heap)
            while on_slot is not None and t >= next_slot:
                on_slot(next_slot, slot_latencies)
                slot_latencies = []
                next_slot += slot_seconds
            if tries == 0:
                self.requests += 1
                if self.budget is not None:
                    self.budget.record_request(now=t)
            self.attempts += 1
            result = self.web.fetch(key, t)
            if result.path is FetchPath.SHED:
                latency: Optional[float] = None
                wake = t + RETRY_DELAY
            else:
                latency = result.completed - t
                slot_latencies.append(latency)
                # The client only learns it is slow at the SLO timeout.
                wake = t + SLO_SECONDS + RETRY_DELAY
            phase_records.append((t, latency))
            want_retry = latency is None or latency > SLO_SECONDS
            if want_retry and tries < MAX_RETRIES:
                if self.budget is not None:
                    allowed = self.budget.allow_retry(now=t)
                else:
                    allowed = self.retry_unbudgeted
                if allowed:
                    self.retries += 1
                    heapq.heappush(
                        heap, (wake, next(self._tiebreak), key, tries + 1)
                    )
        if on_slot is not None and slot_latencies:
            on_slot(next_slot, slot_latencies)
        self.records.extend(phase_records)
        return phase_records


def _phase_stats(
    records: List[Tuple[float, Optional[float]]], duration: float
) -> Dict[str, float]:
    served = [lat for _, lat in records if lat is not None]
    good = [lat for lat in served if lat <= SLO_SECONDS]
    return {
        "attempts": len(records),
        "served": len(served),
        "shed": len(records) - len(served),
        "goodput_rate": round(len(good) / duration, 2),
        "p50_s": round(_percentile(served, 0.50), 4),
        "p99_s": round(_percentile(served, 0.99), 4),
    }


def _run_scenario(armored: bool) -> Dict[str, object]:
    rng = random.Random(SEED)
    cache = CacheCluster(
        ProteusRouter(NUM_CACHE),
        capacity_bytes=4096 * 4000,
        initial_active=NUM_CACHE,
        bloom_config=BLOOM,
    )
    database = DatabaseCluster(NUM_DB_SHARDS, seed=SEED)
    admission = (
        VirtualQueueAdmission(max_depth=ADMISSION_DEPTH) if armored else None
    )
    web = WebServer(0, cache, database, seed=SEED, admission=admission)
    budget = (
        RetryBudget(
            ratio=RETRY_RATIO,
            min_retries_per_second=RETRY_MIN_RATE,
            halflife=10.0,
        )
        if armored
        else None
    )
    client = _ClientDriver(web, budget, retry_unbudgeted=not armored)

    # The shed-aware closed loop observes the armored run per slot; it is
    # deliberately fed the *median* latency, which hits keep low — only
    # the shed-rate signal reveals the overload.
    monitor = ClusterHealthMonitor(
        [web.stats], cache.failed_servers, cache.transitions.in_transition
    )
    controller = DelayFeedbackController(
        num_servers=NUM_CACHE,
        per_server_rate=150.0,
        min_servers=2,
    )
    controller.reset(2)
    commanded: List[int] = []

    def on_slot(at: float, latencies: List[float]) -> None:
        health = monitor.observe(at)
        commanded.append(
            controller.update(
                _percentile(latencies, 0.50), health.requests, health
            )
        )

    # Warm the hot working set (low rate: the warmup must not overload).
    warm_keys = [f"hot:{i}" for i in range(HOT_KEYS)]
    t = 0.0
    for key in warm_keys:
        web.fetch(key, t)
        t += 1.0 / WARMUP_RATE
    warmup_end = t + 1.0

    baseline_arrivals = _arrivals(
        rng, warmup_end, BASE_RATE, BASELINE_SECONDS, 0.95, "cold:b"
    )
    storm_start = warmup_end + BASELINE_SECONDS
    storm_arrivals = _arrivals(
        rng, storm_start, STORM_RATE, STORM_SECONDS, 0.50, "cold:s"
    )
    recovery_start = storm_start + STORM_SECONDS
    recovery_arrivals = _arrivals(
        rng, recovery_start, BASE_RATE, RECOVERY_SECONDS, 0.95, "cold:r"
    )

    # The timeline records the controller's decisions up to the storm's end.
    with obs.recording() as timeline:
        baseline = client.run(baseline_arrivals, on_slot=on_slot)
        n_before_storm = controller.current

        # 5x storm, with a scale-down transition opening mid-storm (the
        # worst case: a drain window plus a flash crowd plus retries).
        split = int(SCALE_DOWN_AFTER * STORM_RATE)
        client.run(storm_arrivals[:split], on_slot=on_slot)
        cache.scale_to(
            NUM_CACHE - 1, storm_start + SCALE_DOWN_AFTER, DRAIN_TTL
        )
        client.run(storm_arrivals[split:], on_slot=on_slot)
    # The storm window includes retries fired inside it, keyed by time.
    storm = [
        r for r in client.records
        if storm_start <= r[0] < recovery_start
    ]
    n_after_storm = controller.current
    storm_scale_ups = len(timeline.of("controller.emergency"))

    cache.finalize_expired(recovery_start)
    recovery = client.run(recovery_arrivals, on_slot=on_slot)

    baseline_stats = _phase_stats(baseline, BASELINE_SECONDS)
    storm_stats = _phase_stats(storm, STORM_SECONDS)
    # Recovery gate looks at the window's tail: the system must be back
    # to baseline by the end, whatever the first seconds still digest.
    tail_cut = recovery_start + RECOVERY_SECONDS / 2
    recovery_tail = [r for r in recovery if r[0] >= tail_cut]
    recovery_stats = _phase_stats(recovery_tail, RECOVERY_SECONDS / 2)

    return {
        "armored": armored,
        "requests": client.requests,
        "attempts": client.attempts,
        "retries": client.retries,
        "amplification": round(client.attempts / client.requests, 4),
        "baseline": baseline_stats,
        "storm": storm_stats,
        "recovery_tail": recovery_stats,
        "db_requests": database.total_requests(),
        "shed_total": web.stats.shed,
        "controller": {
            "before_storm": n_before_storm,
            "after_storm": n_after_storm,
            "final": controller.current,
            "emergency_scale_ups": storm_scale_ups,
        },
        "budget": (
            {
                "granted": budget.granted,
                "denied": budget.denied,
            }
            if budget is not None
            else None
        ),
    }


def run_bench() -> Dict[str, object]:
    unarmored = _run_scenario(armored=False)
    armored = _run_scenario(armored=True)

    base_rate = armored["baseline"]["goodput_rate"]
    goodput_ratio = round(armored["storm"]["goodput_rate"] / base_rate, 4)

    # Gate 1: goodput through the 5x storm.
    assert goodput_ratio >= GATE_GOODPUT_RATIO, (
        f"armored storm goodput only {goodput_ratio:.2f}x the baseline "
        f"rate (gate: >= {GATE_GOODPUT_RATIO})"
    )
    # Gate 2: p99 of admitted storm requests stays bounded.
    assert armored["storm"]["p99_s"] <= GATE_P99_ADMITTED, (
        f"armored storm p99 {armored['storm']['p99_s']}s over the "
        f"{GATE_P99_ADMITTED}s bound"
    )
    # Gate 3: retry volume within budget — no amplification.
    total_span = BASELINE_SECONDS + STORM_SECONDS + RECOVERY_SECONDS
    budget_cap = (
        RETRY_RATIO * armored["requests"] + RETRY_MIN_RATE * total_span + 2
    )
    assert armored["retries"] <= budget_cap, (
        f"{armored['retries']} budgeted retries exceed the "
        f"{budget_cap:.0f} cap"
    )
    assert armored["amplification"] < unarmored["amplification"], (
        "the retry budget did not reduce amplification: "
        f"{armored['amplification']} vs {unarmored['amplification']}"
    )
    # Gate 4: recovery to ~baseline p99 within the fixed window, while
    # the unarmored tier is still digesting its backlog.
    recovery_bound = max(
        GATE_RECOVERY_FACTOR * armored["baseline"]["p99_s"], 0.5
    )
    assert armored["recovery_tail"]["p99_s"] <= recovery_bound, (
        f"armored recovery p99 {armored['recovery_tail']['p99_s']}s over "
        f"{recovery_bound:.2f}s"
    )
    assert (
        unarmored["recovery_tail"]["p99_s"]
        > 5 * armored["recovery_tail"]["p99_s"]
    ), "unarmored tier recovered as fast as armored — bench lost its teeth"
    # Gate 5: the closed loop reacts to shedding (scale-up during the
    # storm) and relaxes afterwards.
    ctl = armored["controller"]
    assert ctl["after_storm"] > ctl["before_storm"], (
        f"controller never scaled up on shedding: {ctl}"
    )
    assert ctl["emergency_scale_ups"] >= 1, f"no emergency scale-ups: {ctl}"
    assert ctl["final"] < ctl["after_storm"], (
        f"controller never relaxed after the storm: {ctl}"
    )
    # Sanity: the armor is inert at baseline load.
    assert armored["baseline"]["shed"] == 0, (
        f"baseline shed {armored['baseline']['shed']} requests"
    )

    return {
        "gate": {
            "goodput_ratio": goodput_ratio,
            "min_goodput_ratio": GATE_GOODPUT_RATIO,
            "p99_admitted_bound_s": GATE_P99_ADMITTED,
        },
        "offered": {
            "base_rate": BASE_RATE,
            "storm_rate": STORM_RATE,
            "storm_seconds": STORM_SECONDS,
            "admission_depth": ADMISSION_DEPTH,
            "retry_ratio": RETRY_RATIO,
        },
        "armored": armored,
        "unarmored": unarmored,
    }


def print_report(report: Dict[str, object]) -> None:
    print("\nOverload armor (open-loop 5x storm + retry storm, sim tier):")
    print(fmt_row("scenario", ["goodrate", "p99s", "rec_p99", "amp",
                               "shed", "dbreads"], width=10))
    for name in ("unarmored", "armored"):
        row = report[name]
        print(fmt_row(name, [
            row["storm"]["goodput_rate"],
            row["storm"]["p99_s"],
            row["recovery_tail"]["p99_s"],
            row["amplification"],
            row["shed_total"],
            row["db_requests"],
        ], width=10))
    ctl = report["armored"]["controller"]
    print(
        f"storm goodput ratio {report['gate']['goodput_ratio']}x baseline "
        f"(gate >= {GATE_GOODPUT_RATIO}); controller "
        f"{ctl['before_storm']} -> {ctl['after_storm']} -> {ctl['final']} "
        f"({ctl['emergency_scale_ups']} emergency scale-ups on shed)"
    )


def check_ratchet(report: Dict[str, object]) -> int:
    """CI ratchet: the armored storm goodput ratio must not regress >15%."""
    committed = _ratchet.load_committed(JSON_PATH)
    if committed is None:
        return 1
    old = committed["gate"]["goodput_ratio"]
    new = report["gate"]["goodput_ratio"]
    ok = _ratchet.check(
        "storm goodput ratio", new, old,
        max(GATE_GOODPUT_RATIO, old * (1 - RATCHET_TOLERANCE)),
        better="higher", unit="x", digits=3,
    )
    return 0 if ok else 1


def test_overload_armor_gates():
    """Goodput, bounded p99, budget compliance, recovery, and the
    shed-driven control loop (all asserted inside :func:`run_bench`)."""
    report = run_bench()
    print_report(report)
    _ratchet.write_report(JSON_PATH, report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="ratchet mode: fail if the armored storm goodput ratio "
             f"regressed >{int(100 * RATCHET_TOLERANCE)}%% vs the "
             "committed BENCH_overload.json (the file is not rewritten)",
    )
    args = parser.parse_args()
    report = run_bench()
    print_report(report)
    if args.check:
        return check_ratchet(report)
    _ratchet.write_report(JSON_PATH, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
