"""Per-server power model.

The paper measures real per-socket power with an Avocent PM3000 PDU.  We use
the standard linear model: an OFF server draws a small standby wattage, an
ON server draws ``idle + (peak - idle) * utilization``.  Defaults are
calibrated to the paper's Fig. 10, where the full 30-machine service cluster
(10 web + 10 cache + 7 DB + switch overhead) draws ~2.8-3.4 kW: mid-range
1U servers (Dell R210 class) idle near 70 W and peak near 120 W.

Server *efficiency* (workload per watt), by which Section III-A orders a
heterogeneous fleet, is :class:`repro.provisioning.order.ServerSpec`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Defaults for a Dell PowerEdge R210-class 1U server.
DEFAULT_P_OFF = 5.0
DEFAULT_P_IDLE = 70.0
DEFAULT_P_PEAK = 120.0


@dataclass(frozen=True)
class ServerPowerModel:
    """Linear utilization-to-watts model for one server.

    Attributes:
        p_off: watts drawn when powered off (standby / BMC).
        p_idle: watts at zero utilization.
        p_peak: watts at 100% utilization.
    """

    p_off: float = DEFAULT_P_OFF
    p_idle: float = DEFAULT_P_IDLE
    p_peak: float = DEFAULT_P_PEAK

    def __post_init__(self) -> None:
        if not 0 <= self.p_off <= self.p_idle <= self.p_peak:
            raise ConfigurationError(
                f"need 0 <= p_off <= p_idle <= p_peak, got "
                f"({self.p_off}, {self.p_idle}, {self.p_peak})"
            )

    def power(self, powered_on: bool, utilization: float = 0.0) -> float:
        """Watts drawn given the power state and utilization in [0, 1]."""
        if not powered_on:
            return self.p_off
        clamped = min(1.0, max(0.0, utilization))
        return self.p_idle + (self.p_peak - self.p_idle) * clamped
