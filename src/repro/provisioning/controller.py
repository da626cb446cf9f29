"""Delay-feedback provisioning controller.

The paper runs "the feedback control algorithm along with Proteus with the
delay bound set to 0.5 second [and] the feedback loop reference point ... to
0.4 second to tolerate overshot.  The loop updates its status every 30
minutes" (Section VI) — but omits the algorithm itself as out of scope.

We implement a conservative controller with those knobs:

* measure a per-slot delay statistic (the paper uses high percentiles);
* above the **bound**: scale up aggressively (proportional to overshoot);
* above the **reference** but under the bound: scale up by one;
* comfortably under the reference with headroom: scale down by one.

Headroom for scale-down is checked against rated load: a server is dropped
only when the per-server arrival rate after removal stays below 90% of
``per_server_rate`` *and* the M/M/1 projection stays under the reference —
delay alone is a bad down-trigger because an M/M/1 runs at low delay right
up to the saturation cliff.  This keeps the output series
shaped like the paper's Fig. 4 circles: it tracks the diurnal workload with
a small lag and never oscillates on noise.  (DESIGN.md records this as a
substitution: same interface and knobs, reconstructed internals.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.provisioning.policies import DEFAULT_SLOT_SECONDS, ProvisioningSchedule
from repro.sim.latency import mm1_response_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (health imports us not)
    from repro.provisioning.health import HealthSnapshot

#: Paper settings (Section VI).
DEFAULT_DELAY_BOUND = 0.5
DEFAULT_DELAY_REFERENCE = 0.4

#: only drop a server when the measured delay is below
#: ``delay_reference * SCALE_DOWN_MARGIN``
SCALE_DOWN_MARGIN = 0.75
#: served-around-fault rate (per request, :attr:`HealthSnapshot.degraded_rate`)
#: above which a slot is impaired: scale-down is vetoed and one emergency
#: server is added even if the measured delay still looks fine
DEGRADED_RATE_THRESHOLD = 0.05
#: remap misses per request above which the previous transition is still
#: decaying and scale-down is vetoed; a handful of straggler old-owner hits
#: below it does not block descent forever
REMAP_VETO_THRESHOLD = 0.05
#: admission-shed rate (per offered request, :attr:`HealthSnapshot.shed_rate`)
#: above which a slot is overloaded: sustained shedding is demand the tier
#: refused, so one server is added and scale-down is vetoed — the answer to
#: a flash crowd the delay signal under-reports (a shed request posts no
#: latency sample)
SHED_RATE_THRESHOLD = 0.02


@dataclass
class DelayFeedbackController:
    """Per-slot active-count controller keyed to a delay reference.

    Attributes:
        num_servers: fleet size ``N``.
        delay_bound: hard bound (paper: 0.5 s).
        delay_reference: set point with overshoot margin (paper: 0.4 s).
        min_servers: scale-down floor.
        per_server_rate: requests/s one cache server absorbs at acceptable
            delay (used for the scale-down headroom check).

    Passing a :class:`~repro.provisioning.health.HealthSnapshot` to
    :meth:`update` closes the loop with the resilience layer; with
    ``health=None`` (the default) the controller's behaviour is
    bit-identical to the open-loop, delay-only original.  Each slot
    where health feedback forces capacity or blocks a scale-down is a
    ``controller.emergency`` / ``controller.veto`` event on the
    :mod:`repro.obs` timeline, with its reason.
    """

    num_servers: int
    delay_bound: float = DEFAULT_DELAY_BOUND
    delay_reference: float = DEFAULT_DELAY_REFERENCE
    min_servers: int = 1
    per_server_rate: float = 200.0
    _n: int = field(init=False)

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigurationError(
                f"num_servers must be >= 1, got {self.num_servers}"
            )
        if not 0 < self.delay_reference <= self.delay_bound:
            raise ConfigurationError(
                "need 0 < delay_reference <= delay_bound, got "
                f"({self.delay_reference}, {self.delay_bound})"
            )
        if not 1 <= self.min_servers <= self.num_servers:
            raise ConfigurationError(
                f"min_servers out of range: {self.min_servers}"
            )
        self._n = self.num_servers

    @property
    def current(self) -> int:
        """The active count currently commanded."""
        return self._n

    def reset(self, initial: int) -> None:
        """Command *initial* servers — for a loop that starts already
        converged on its first slot's load rather than at full fleet."""
        if not self.min_servers <= initial <= self.num_servers:
            raise ConfigurationError(
                f"initial out of range "
                f"[{self.min_servers}, {self.num_servers}]: {initial}"
            )
        self._n = initial

    def projected_delay(self, arrival_rate: float, servers: int) -> float:
        """M/M/1 projection of per-request delay with *servers* active."""
        per_server = arrival_rate / max(1, servers)
        # Service rate: a server at its rated load runs at ~70% utilization.
        service_rate = self.per_server_rate / 0.7
        return mm1_response_time(per_server, service_rate)

    def update(
        self,
        measured_delay: float,
        arrival_rate: float,
        health: Optional["HealthSnapshot"] = None,
    ) -> int:
        """One 30-minute loop iteration.

        Args:
            measured_delay: the slot's delay statistic (seconds).
            arrival_rate: the slot's request rate (req/s), used as the
                feed-forward term for sizing steps and headroom.
            health: the slot's :class:`HealthSnapshot` — closes the loop
                with the resilience layer.  ``None`` (default) reproduces
                the delay-only behaviour exactly.

        With health feedback the delay-derived candidate is adjusted:

        * **emergency scale-up** — an unhealthy server (tripped breaker or
          crash) among the active set is capacity already gone, so the
          target is raised to cover the load with the survivors *plus* the
          lost count; a high degraded-rate without an identified culprit
          still adds one server.  The rule cannot run away: once enough
          healthy servers cover the load, no further growth is forced.
        * **scale-down veto** — no server is dropped while any server is
          unhealthy, a drain window is open, or the previous transition's
          remap-miss rate is still above ``REMAP_VETO_THRESHOLD``; shedding
          capacity during an incident converts the next fault into an
          outage.

        Returns:
            The new active count for the next slot.
        """
        if measured_delay < 0:
            raise ConfigurationError(
                f"measured_delay must be >= 0, got {measured_delay}"
            )
        if arrival_rate < 0:
            raise ConfigurationError(
                f"arrival_rate must be >= 0, got {arrival_rate}"
            )
        n = self._n
        candidate = n
        if measured_delay > self.delay_bound:
            # Emergency: add capacity proportional to the overshoot.
            overshoot = measured_delay / self.delay_bound
            step = max(1, min(self.num_servers - n, round(overshoot)))
            candidate = n + step
        elif measured_delay > self.delay_reference:
            candidate = n + 1
        elif measured_delay < self.delay_reference * SCALE_DOWN_MARGIN:
            if n > self.min_servers:
                headroom_ok = (
                    arrival_rate / (n - 1) <= 0.9 * self.per_server_rate
                )
                projected = self.projected_delay(arrival_rate, n - 1)
                if headroom_ok and projected < self.delay_reference:
                    candidate = n - 1
        if health is not None:
            candidate = self._apply_health(candidate, n, arrival_rate, health)
        n = min(self.num_servers, max(self.min_servers, candidate))
        self._n = n
        return n

    def _apply_health(
        self,
        candidate: int,
        n: int,
        arrival_rate: float,
        health: "HealthSnapshot",
    ) -> int:
        """Adjust the delay-derived *candidate* with resilience signals."""
        shedding = health.shed_rate > SHED_RATE_THRESHOLD
        lost = len([s for s in health.unhealthy_servers if s < n])
        required = max(
            self.min_servers,
            math.ceil(arrival_rate / (0.9 * self.per_server_rate))
            if arrival_rate > 0
            else self.min_servers,
        )
        degrading = health.degraded_rate > DEGRADED_RATE_THRESHOLD
        forced = None
        if lost and n - lost < required:
            # Treat lost servers as capacity already gone: provision enough
            # healthy servers to carry the load.  Bounded by the fleet and
            # by `required + lost`, so a permanently dead server cannot
            # drive unbounded growth slot after slot.
            target = min(self.num_servers, required + lost)
            if target > candidate:
                candidate, forced = target, "lost"
        elif not health.unhealthy_servers and (degrading or shedding):
            # The path is degrading without a clearly-dead server (resets,
            # reconnect storms), or admission control is refusing work the
            # tier should absorb: add one server's worth of slack.
            if candidate <= n < self.num_servers:
                candidate = n + 1
                forced = "degraded" if degrading else "shed"
        if forced is not None:
            obs.emit("controller.emergency", health.at, n=n, to=candidate,
                     reason=forced)
        decaying = health.remap_misses > REMAP_VETO_THRESHOLD * max(
            1, health.requests
        )
        vetoes = (
            ("unhealthy", bool(health.unhealthy_servers)),
            ("transition", health.in_transition),
            ("remap", decaying),
            ("shed", shedding),
        )
        veto = next((reason for reason, holds in vetoes if holds), None)
        if candidate < n and veto is not None:
            obs.emit("controller.veto", health.at, n=n, wanted=candidate,
                     reason=veto)
            candidate = n
        return candidate


def run_feedback_loop(
    slot_rates: List[float],
    num_servers: int,
    per_server_rate: float = 200.0,
    initial: Optional[int] = None,
    slot_seconds: float = DEFAULT_SLOT_SECONDS,
    delay_bound: float = DEFAULT_DELAY_BOUND,
    delay_reference: float = DEFAULT_DELAY_REFERENCE,
) -> ProvisioningSchedule:
    """Drive the controller over a workload, simulating the delay it reacts to.

    This reproduces the paper's preparatory experiment: run the loop once
    over the trace, keep the resulting ``n(t)`` (Fig. 4), then replay that
    series in every scenario.  The measured delay fed back is the M/M/1
    projection at the *current* size plus the rate — a stand-in for the real
    measurement the paper's loop observed.
    """
    controller = DelayFeedbackController(
        num_servers=num_servers,
        per_server_rate=per_server_rate,
        delay_bound=delay_bound,
        delay_reference=delay_reference,
    )
    if initial is None:
        # Start sized to the first slot's load rather than at full fleet, as
        # the paper's loop had converged before its recorded day began.
        initial = min(
            num_servers,
            max(1, math.ceil(slot_rates[0] / per_server_rate) if slot_rates else 1),
        )
    controller.reset(initial)
    counts = []
    for rate in slot_rates:
        projected = controller.projected_delay(rate, controller.current)
        # A saturated M/M/1 projects infinity; feed the controller a finite
        # over-bound signal so its proportional step stays bounded.
        measured = min(projected, delay_bound * 4)
        counts.append(controller.update(measured, rate))
    return ProvisioningSchedule(slot_seconds, counts)
