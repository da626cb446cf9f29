"""Provisioning: policies, the delay-feedback controller, and the actuator."""

from repro.provisioning.policies import limit_step_size

__all__ = [
    "limit_step_size",
]
