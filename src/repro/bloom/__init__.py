"""Bloom filters and the Proteus digest sizing math (paper Section IV)."""

from repro.bloom.config import (
    counter_bits_closed_form,
    false_negative_bound,
    false_positive_rate,
)

__all__ = [
    "counter_bits_closed_form",
    "false_negative_bound",
    "false_positive_rate",
]
