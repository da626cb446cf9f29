"""PDU-style power sampling and energy integration.

The paper samples every socket every 15 seconds (Section VI-D) and reports
power-over-time (Fig. 10) and total energy (Fig. 11) for the entire cluster
and for the cache tier alone.  :class:`PowerMeter` does the same: callers
register named *channels* (one per server, tagged with a tier) that report
``(powered_on, utilization)`` when sampled; the meter turns that into watts
via each channel's :class:`ServerPowerModel`, keeps per-tier time series,
and integrates energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.power.model import ServerPowerModel
from repro.sim.metrics import TimeSeries

#: The paper's PDU sampling period.
DEFAULT_SAMPLE_PERIOD = 15.0

#: ``(powered_on, utilization)`` at sampling time.
ChannelProbe = Callable[[float], Tuple[bool, float]]


@dataclass
class Channel:
    """One metered socket: a server's probe + power model + tier tag."""

    name: str
    tier: str
    probe: ChannelProbe
    model: ServerPowerModel


class PowerMeter:
    """Samples registered channels and accumulates per-tier energy.

    Args:
        sample_period: seconds between samples (paper: 15 s).
    """

    def __init__(self, sample_period: float = DEFAULT_SAMPLE_PERIOD) -> None:
        if sample_period <= 0:
            raise ConfigurationError(
                f"sample_period must be > 0, got {sample_period}"
            )
        self.sample_period = sample_period
        self.channels: List[Channel] = []
        #: per-tier power time series (watts at each sample time)
        self.tier_series: Dict[str, TimeSeries] = {}
        #: whole-cluster power series
        self.total_series = TimeSeries()

    def add_channel(
        self,
        name: str,
        tier: str,
        probe: ChannelProbe,
        model: Optional[ServerPowerModel] = None,
    ) -> None:
        """Register one socket."""
        self.channels.append(
            Channel(name=name, tier=tier, probe=probe, model=model or ServerPowerModel())
        )
        self.tier_series.setdefault(tier, TimeSeries())

    def sample(self, now: float) -> float:
        """Take one sample of every channel; returns total watts."""
        per_tier: Dict[str, float] = {tier: 0.0 for tier in self.tier_series}
        for channel in self.channels:
            powered_on, utilization = channel.probe(now)
            watts = channel.model.power(powered_on, utilization)
            per_tier[channel.tier] = per_tier.get(channel.tier, 0.0) + watts
        total = sum(per_tier.values())
        for tier, watts in per_tier.items():
            self.tier_series[tier].append(now, watts)
        self.total_series.append(now, total)
        return total

    def energy_joules(self, tier: Optional[str] = None) -> float:
        """Trapezoidal energy integral over all samples so far.

        Args:
            tier: restrict to one tier; ``None`` for the whole cluster
                (the two bars of Fig. 11).
        """
        series = self.total_series if tier is None else self.tier_series[tier]
        return series.integrate()

    def energy_kwh(self, tier: Optional[str] = None) -> float:
        """Energy in kWh (the Fig. 11 unit)."""
        return self.energy_joules(tier) / 3.6e6

    def tiers(self) -> List[str]:
        """Registered tier names."""
        return sorted(self.tier_series)


def busy_time_probe(
    busy_time: Callable[[], float], powered: Callable[[], bool]
) -> ChannelProbe:
    """Probe for components with exact busy-time accounting (DB shards).

    Utilization over the sampling window is the busy-seconds delta divided
    by elapsed time — exact for a :class:`~repro.sim.latency.ServiceQueue`.
    """
    state = {"last_busy": 0.0, "last_time": None}

    def probe(now: float) -> Tuple[bool, float]:
        busy = busy_time()
        last_time = state["last_time"]
        if last_time is None or now <= last_time:
            utilization = 0.0
        else:
            utilization = min(1.0, (busy - state["last_busy"]) / (now - last_time))
        state["last_busy"] = busy
        state["last_time"] = now
        return powered(), utilization

    return probe


def utilization_probe(
    requests_counter: Callable[[], int],
    powered: Callable[[], bool],
    op_cost: float,
) -> ChannelProbe:
    """Build a probe that estimates utilization from a request counter.

    Utilization since the previous sample is approximated as
    ``ops_since_last * op_cost / elapsed``, capped at 1.  The closure keeps
    the previous counter reading, so attach each probe to only one meter.
    """
    state = {"last_count": 0, "last_time": None}

    def probe(now: float) -> Tuple[bool, float]:
        count = requests_counter()
        last_time = state["last_time"]
        if last_time is None or now <= last_time:
            utilization = 0.0
        else:
            delta_ops = count - state["last_count"]
            elapsed = now - last_time
            utilization = min(1.0, delta_ops * op_cost / elapsed)
        state["last_count"] = count
        state["last_time"] = now
        return powered(), utilization

    return probe
