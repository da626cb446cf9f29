"""Eq. 10 / Table I — memory-optimal digest sizing across key counts.

Regenerates the Section IV-B optimization: for each expected key count, the
minimal (l, b), digest memory, the closed-form (Lambert W) vs enumerated b,
and the paper's worked example (kappa=1e4, h=4, pp=pn=1e-4 -> l=4e5, b=3,
~150 KB).
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import fmt_row
from repro.bloom.config import (
    counter_bits_closed_form,
    optimal_config,
)

REPRODUCES = "Section IV-B: the memory-optimal digest of Eq. 10 / Table I"

KAPPAS = [1_000, 10_000, 100_000, 1_000_000, 2_560_000]  # last = paper's 1GB/4KB


def sweep():
    return {kappa: optimal_config(kappa, 4, 1e-4, 1e-4) for kappa in KAPPAS}


def test_bloom_config_table(benchmark):
    configs = benchmark.pedantic(sweep, rounds=5, iterations=1)
    print("\nEq. 10 — optimal digest configuration (h=4, pp=pn=1e-4):")
    print(fmt_row("kappa", KAPPAS, width=10))
    print(fmt_row("l", [configs[k].num_counters for k in KAPPAS], width=10))
    print(fmt_row("b", [configs[k].counter_bits for k in KAPPAS], width=10))
    print(fmt_row(
        "KB", [round(configs[k].memory_bytes / 1024, 1) for k in KAPPAS],
        width=10,
    ))
    closed = [
        counter_bits_closed_form(configs[k].num_counters, k, 4, 1e-4)
        for k in KAPPAS
    ]
    print(fmt_row("b (closed)", [round(c, 2) for c in closed], width=10))

    # Paper example: kappa=1e4 -> l~4e5, b=3, ~150 KB.
    example = configs[10_000]
    assert example.counter_bits == 3
    assert example.memory_bytes == pytest.approx(150 * 1024, rel=0.10)
    # Closed form rounds up to the enumerated integer everywhere.
    for k, c in zip(KAPPAS, closed):
        assert configs[k].counter_bits == math.ceil(c)
    # Memory scales linearly in kappa (the digest stays "a few hundred KB"
    # even at the paper's 2.56M-page setting, i.e. broadcastable).
    assert configs[2_560_000].memory_bytes < 50 * 1024 * 1024
