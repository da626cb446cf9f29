"""Provisioning: policies, the delay-feedback controller, the health monitor."""

from repro.provisioning.policies import limit_step_size

__all__ = [
    "limit_step_size",
]
