#!/usr/bin/env python3
"""The real-trace pipeline — from a WikiBench file to calibrated experiments.

The paper replays the Urdaneta et al. Wikipedia trace; this walkthrough
shows the full tooling path on a locally synthesized WikiBench-format file
(swap in the real download and nothing else changes):

1. convert the WikiBench lines to the package trace format, with the
   paper's "distill English Wikipedia" filtering;
2. characterize it (Zipf exponent, rate envelope, working set, burstiness);
3. derive a provisioning schedule from the envelope;
4. run the Fig. 5 load-balance comparison on the *real* keys.

Run:  python examples/real_trace_pipeline.py
"""

import math
import random
import tempfile
from pathlib import Path

from repro import (
    ProteusRouter,
    ConsistentRouter,
    evaluate_load_balance,
    load_proportional_schedule,
)
from repro.workload import summarize
from repro.workload.analysis import rate_envelope
from repro.workload.wikibench import convert_file
from repro.workload.zipf import ZipfSampler

NUM_SLOTS = 8
DURATION = 400.0


def synthesize_wikibench_file(path: Path) -> None:
    """Write a WikiBench-format file: mixed-language, images, articles."""
    rng = random.Random(4)
    sampler = ZipfSampler(3000, alpha=0.9, seed=4)
    lines = []
    t = 1194892620.0
    counter = 0
    while t - 1194892620.0 < DURATION:
        # diurnal-ish rate between 40 and 80 req/s
        phase = (t - 1194892620.0) / DURATION
        rate = 60 + 20 * math.sin(2 * math.pi * phase)
        t += rng.expovariate(rate)
        counter += 1
        roll = rng.random()
        if roll < 0.55:
            page = int(sampler.sample())
            url = f"http://en.wikipedia.org/wiki/Page_{page}"
        elif roll < 0.75:
            url = "http://upload.wikimedia.org/thumb/img.png"
        elif roll < 0.9:
            url = f"http://de.wikipedia.org/wiki/Seite_{rng.randrange(500)}"
        else:
            url = "http://en.wikipedia.org/wiki/Special:Random"
        lines.append(f"{counter} {t:.3f} {url} -")
    path.write_text("\n".join(lines))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "wikibench.txt"
        synthesize_wikibench_file(source)

        # 1. convert (the paper's "distill English Wikipedia" step)
        records, stats = convert_file(source)
        print(f"Converted {stats.kept}/{stats.total_lines} lines "
              f"({stats.keep_ratio:.0%} kept; dropped "
              f"{stats.non_english} non-English, {stats.non_article} non-article)")

        # 2. characterize
        summary = summarize(records, window_seconds=DURATION / NUM_SLOTS)
        print(f"Trace: {summary.requests} requests, "
              f"{summary.distinct_keys} distinct pages, "
              f"{summary.mean_rate:.1f} req/s, "
              f"peak/valley {summary.peak_to_valley:.2f}, "
              f"Zipf alpha ~ {summary.zipf_alpha:.2f}, "
              f"interarrival CV {summary.interarrival_cv:.2f}")

        # 3. schedule from the envelope
        envelope = rate_envelope(records, DURATION / NUM_SLOTS)[:NUM_SLOTS]
        schedule = load_proportional_schedule(
            envelope, per_server_capacity=max(envelope) / 6,
            num_servers=8, slot_seconds=DURATION / NUM_SLOTS,
        )
        print(f"Provisioning n(t) from the envelope: {schedule.counts}")

        # 4. Fig. 5 on the real keys
        for router in (ProteusRouter(8), ConsistentRouter.log_variant(8)):
            result = evaluate_load_balance(router, records, schedule)
            print(f"  {result.router_name:<11s} min/max ratios "
                  f"{['%.2f' % r for r in result.ratios()]} "
                  f"(mean {result.mean_ratio():.3f})")
        print("\nSwap `source` for the real WikiBench download and the same "
              "pipeline runs unchanged.")


if __name__ == "__main__":
    main()
