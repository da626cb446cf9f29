"""Command-line interface: ``python -m repro <command>``.

Operator-facing entry points for the library's main flows:

``place``          print the Algorithm 1 virtual-node placement for a fleet
``route``          route keys under any Table II scenario
``bloom-config``   the Section IV-B memory-optimal digest configuration
``trace-gen``      synthesize a diurnal Zipf trace to a CSV file
``trace-convert``  convert a WikiBench trace into the package trace format
``loadbalance``    Fig. 5-style min/max load table for a trace + schedule
``simulate``       run Table II scenarios end to end and print the summary
``autopilot``      run the online controller (optionally closed-loop) with
                   scripted faults and print the per-slot decision table
``config-init``    write the shared cluster-config JSON for a fleet

Every command writes plain text to stdout and exits non-zero on bad input,
so the CLI is scriptable; all randomness is seeded via ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.errors import ProteusError


def _parse_counts(text: str) -> List[int]:
    try:
        counts = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not counts:
        raise argparse.ArgumentTypeError("schedule must not be empty")
    return counts


def _parse_fault(text: str):
    """``at:server[:clear_at]`` -> (at, server_id, clear_at-or-None)."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected at:server[:clear_at], got {text!r}"
        )
    try:
        at = float(parts[0])
        server_id = int(parts[1])
        clear_at = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected at:server[:clear_at], got {text!r}"
        )
    return at, server_id, clear_at


def _parse_scenario(name: str):
    """A ``--scenario`` value: the Table II scenario it names."""
    from repro.experiments.testbed import scenario

    try:
        return scenario(name)
    except ProteusError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proteus (ICDCS 2013) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="print the Algorithm 1 placement")
    p.add_argument("num_servers", type=int)
    p.add_argument("--ring-size", type=int, default=2 ** 32)
    p.add_argument("--verify", action="store_true",
                   help="exactly verify the balance condition for every prefix")

    p = sub.add_parser("route", help="route keys to cache servers")
    p.add_argument("keys", nargs="+")
    p.add_argument("--servers", type=int, required=True)
    p.add_argument("--active", type=int, required=True)
    p.add_argument("--scenario", default="proteus", type=_parse_scenario,
                   help="a Table II scenario name")
    p.add_argument("--replicas", type=int, default=1)

    p = sub.add_parser("bloom-config", help="size the cache digest (Eq. 10)")
    p.add_argument("--kappa", type=int, required=True,
                   help="expected in-cache keys")
    p.add_argument("--hashes", type=int, default=4)
    p.add_argument("--pp", type=float, default=1e-4)
    p.add_argument("--pn", type=float, default=1e-4)

    p = sub.add_parser("trace-gen", help="synthesize a diurnal Zipf trace")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--pages", type=int, default=100_000)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--peak-to-valley", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("trace-convert",
                       help="convert a WikiBench trace to the package format")
    p.add_argument("source")
    p.add_argument("--out", required=True)

    p = sub.add_parser("loadbalance",
                       help="Fig. 5-style per-slot min/max load ratios")
    p.add_argument("--trace", required=True)
    p.add_argument("--servers", type=int, required=True)
    p.add_argument("--schedule", type=_parse_counts, required=True,
                   help="comma-separated active counts, one per slot")
    p.add_argument("--slot-seconds", type=float, required=True)
    p.add_argument("--scenario", default="proteus", type=_parse_scenario,
                   help="a Table II scenario name")

    p = sub.add_parser("autopilot",
                       help="run the online provisioning controller "
                            "(closed loop with --health-feedback)")
    p.add_argument("--users", type=_parse_counts,
                   default=[60, 48, 40, 32, 26, 24, 24, 26, 32, 40, 48, 56],
                   help="comma-separated concurrent-user counts, one per slot")
    p.add_argument("--slot-seconds", type=float, default=30.0)
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--min-servers", type=int, default=2)
    p.add_argument("--health-feedback", action="store_true",
                   help="close the loop: emergency scale-up on lost "
                        "capacity, scale-down vetoes while impaired")
    p.add_argument("--ttl", type=float, default=60.0,
                   help="fixed drain window")
    p.add_argument("--kill", type=_parse_fault, action="append", default=[],
                   metavar="AT:SERVER[:CLEAR_AT]",
                   help="kill SERVER at AT seconds (repair at CLEAR_AT); "
                        "repeatable")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("config-init",
                       help="write a shared cluster-config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--endpoints", required=True,
                   help="comma-separated host:port list, in provisioning order")
    p.add_argument("--keys-per-server", type=int, default=100_000)
    p.add_argument("--ttl", type=float, default=60.0)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--name", default="proteus")

    p = sub.add_parser("simulate",
                       help="run Table II scenarios end to end")
    p.add_argument("--scenarios", default="static,naive,consistent,proteus")
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--schedule", type=_parse_counts,
                   default=[6, 5, 4, 4, 5, 6])
    p.add_argument("--slot-seconds", type=float, default=60.0)
    p.add_argument("--users-per-server", type=int, default=20)
    p.add_argument("--ttl", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    return parser


# ------------------------------------------------------------------ commands


def _cmd_place(args) -> int:
    from repro.core.placement import place_virtual_nodes, theoretical_min_vnodes

    placement = place_virtual_nodes(args.num_servers, args.ring_size)
    print(f"N={args.num_servers}  ring={args.ring_size}  "
          f"vnodes={placement.num_vnodes} "
          f"(Theorem 1 bound {theoretical_min_vnodes(args.num_servers)})")
    for rng in placement.ranges:
        share = rng.length / args.ring_size
        print(f"  server {rng.server:>3d}  start={float(rng.start):>16.1f}  "
              f"len={float(rng.length):>16.1f}  share={float(share):.6f}")
    if args.verify:
        placement.verify_balance()
        print("balance condition: verified exactly for every active prefix")
    return 0


def _cmd_route(args) -> int:
    from repro.core.router import ProteusRouter

    spec = args.scenario
    if args.replicas > 1:
        if spec.name != "Proteus":
            print("--replicas > 1 requires --scenario proteus", file=sys.stderr)
            return 2
        router = ProteusRouter(args.servers, replicas=args.replicas)
    else:
        router = spec.router_factory(args.servers)
    active = args.active if spec.dynamic else args.servers
    for key, owners in zip(args.keys, router.read_plans(args.keys, active)):
        print(f"{key}\t{','.join(map(str, owners))}")
    return 0


def _cmd_bloom_config(args) -> int:
    from repro.bloom.config import optimal_config

    cfg = optimal_config(args.kappa, args.hashes, args.pp, args.pn)
    print(f"kappa={cfg.kappa} h={cfg.num_hashes} pp<={args.pp} pn<={args.pn}")
    print(f"counters (l)    = {cfg.num_counters}")
    print(f"counter bits(b) = {cfg.counter_bits}")
    print(f"memory          = {cfg.memory_bytes} bytes "
          f"({cfg.memory_bytes / 1024:.1f} KB)")
    print(f"achieved Gp     = {cfg.fp_bound:.3e}")
    print(f"achieved Gn     = {cfg.fn_bound:.3e}")
    return 0


def _cmd_trace_gen(args) -> int:
    from repro.workload.trace import save_trace
    from repro.workload.wikipedia import generate_trace

    records = generate_trace(
        duration=args.duration, mean_rate=args.rate, num_pages=args.pages,
        alpha=args.alpha, peak_to_valley=args.peak_to_valley, seed=args.seed,
    )
    count = save_trace(records, args.out)
    print(f"wrote {count} requests over {args.duration:.0f}s to {args.out}")
    return 0


def _cmd_trace_convert(args) -> int:
    from repro.workload.trace import save_trace
    from repro.workload.wikibench import convert_file

    records, stats = convert_file(args.source)
    save_trace(records, args.out)
    print(f"kept {stats.kept}/{stats.total_lines} lines "
          f"({stats.keep_ratio:.1%}): "
          f"{stats.non_english} non-English, {stats.non_article} non-article, "
          f"{stats.malformed} malformed")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_loadbalance(args) -> int:
    from repro.experiments.loadbalance import compare_routers
    from repro.provisioning.policies import ProvisioningSchedule
    from repro.workload.trace import load_trace

    trace = load_trace(args.trace)
    schedule = ProvisioningSchedule(args.slot_seconds, args.schedule)
    spec = args.scenario
    result = compare_routers([spec], trace, schedule, args.servers)[spec.name]
    print(f"scenario={spec.name} slots={schedule.num_slots}")
    for slot, ratio in enumerate(result.ratios()):
        print(f"  slot {slot:>3d}  n={result.active_counts[slot]:>3d}  "
              f"min/max={ratio:.3f}")
    print(f"mean={result.mean_ratio():.3f} worst={result.worst_ratio():.3f}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments.testbed import Sizing, run_scenarios, scenario
    from repro.provisioning.policies import ProvisioningSchedule

    try:
        specs = [scenario(name) for name in args.scenarios.split(",")]
    except ProteusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schedule = ProvisioningSchedule(args.slot_seconds, args.schedule)
    sizing = Sizing(
        seed=args.seed,
        catalogue_size=20_000,
        cache_capacity_bytes=4096 * 2000,  # 2000 pages per server
        pages_per_user=50,
        num_web_servers=10,
        num_db_shards=7,
    )
    print(f"schedule n(t) = {schedule.counts}  slot={args.slot_seconds}s")
    header = f"{'scenario':<12s}{'peak p99.9':>12s}{'db reads':>10s}" \
             f"{'hit':>8s}{'kWh total':>11s}{'kWh cache':>11s}"
    print(header)
    reports = run_scenarios(
        sizing, args.servers, args.ttl, schedule,
        [n * args.users_per_server for n in schedule.counts],
        specs,
        plot_slots=max(12, 2 * schedule.num_slots),
        warmup_seconds=min(20.0, args.slot_seconds / 3),
    )
    for name, report in reports.items():
        print(f"{name:<12s}{report.peak_latency():>11.3f}s"
              f"{report.db_requests:>10d}{report.hit_ratio:>8.3f}"
              f"{report.energy_kwh['total']:>11.4f}"
              f"{report.energy_kwh['cache']:>11.4f}")
    return 0


def _cmd_autopilot(args) -> int:
    from repro.core.router import ProteusRouter
    from repro.experiments.testbed import PER_SERVER_RATE, SimTestbed, Sizing
    from repro.provisioning.controller import DelayFeedbackController
    from repro.resilience import FaultPlan, FaultSchedule

    faults = FaultSchedule()
    for at, server_id, clear_at in args.kill:
        faults.add(at=at, server_id=server_id, plan=FaultPlan.killed(),
                   clear_at=clear_at)
    testbed = SimTestbed(
        Sizing(
            seed=args.seed,
            catalogue_size=6000,
            cache_capacity_bytes=4096 * 600,
            pages_per_user=30,
            num_web_servers=4,
            num_db_shards=4,
            power_sample_period=5.0,
        ),
        ProteusRouter(args.servers),
        ttl=args.ttl,
    )
    controller = DelayFeedbackController(
        num_servers=args.servers,
        min_servers=args.min_servers,
        per_server_rate=PER_SERVER_RATE,
    )
    report = testbed.run(args.users, args.slot_seconds, controller, faults,
                         health_feedback=args.health_feedback)
    print(f"{report.provisioner}: {len(args.users)} slots x "
          f"{args.slot_seconds:.0f}s, fleet {args.servers}, "
          f"{len(args.kill)} scripted fault(s)")
    print(f"{'slot':>5s}{'rate':>8s}{'delay':>8s}{'active':>8s}"
          f"{'healthy':>8s}{'required':>9s}{'failed':>8s}")
    for slot, rate in enumerate(report.arrival_rates):
        failed = ",".join(map(str, sorted(report.failed_sets[slot]))) or "-"
        print(f"{slot:>5d}{rate:>8.1f}"
              f"{report.measured_delays[slot]:>8.3f}"
              f"{report.active_counts[slot]:>8d}"
              f"{report.healthy_counts[slot]:>8d}"
              f"{report.required_counts[slot]:>9d}{failed:>8s}")
    print(f"availability={report.availability:.4f} "
          f"p99={report.latency_percentile(99.0):.3f}s "
          f"energy={report.energy_kwh.get('total', 0.0):.4f}kWh")
    print(f"emergency scale-ups={report.emergency_scale_ups} "
          f"vetoed scale-downs={report.vetoed_scale_downs} "
          f"remap misses={report.remap_misses_total}")
    return 0


def _cmd_config_init(args) -> int:
    from repro.config import ClusterConfig

    endpoints = []
    for entry in args.endpoints.split(","):
        entry = entry.strip()
        host, _, port_text = entry.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"error: bad endpoint {entry!r} (want host:port)",
                  file=sys.stderr)
            return 2
        endpoints.append((host, int(port_text)))
    config = ClusterConfig.for_fleet(
        endpoints,
        expected_keys_per_server=args.keys_per_server,
        ttl_seconds=args.ttl,
        replicas=args.replicas,
        name=args.name,
    )
    config.save(args.out)
    print(f"wrote {args.out}: {config.num_servers} servers, "
          f"digest l={config.digest.num_counters} b={config.digest.counter_bits}, "
          f"ttl={config.ttl_seconds}s, "
          f"replicas={config.replicas}")
    return 0


_COMMANDS = {
    "place": _cmd_place,
    "config-init": _cmd_config_init,
    "route": _cmd_route,
    "bloom-config": _cmd_bloom_config,
    "trace-gen": _cmd_trace_gen,
    "trace-convert": _cmd_trace_convert,
    "loadbalance": _cmd_loadbalance,
    "simulate": _cmd_simulate,
    "autopilot": _cmd_autopilot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ProteusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
