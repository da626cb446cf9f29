"""Experiment harnesses that regenerate the paper's tables and figures.

These modules sit *above* every tier (core, bloom, cache, database, web,
sim, power, provisioning, workload) and wire them into the paper's three
measurement setups: the full closed-loop cluster run (Figs. 9-11), the
routing-only load-balance replay (Fig. 5), and the cache-size hit-ratio
sweep (Fig. 6).
"""
