"""Integration: push-assisted migration through the full experiment stack.

A :class:`BackgroundMigrator` is installed on each smooth transition the
experiment's actuator applies, the way ``bench_ablation_push.py`` wires one
to a transition directly.
"""

from repro.experiments.cluster import ClusterExperiment, ExperimentConfig, ScenarioSpec
from repro.provisioning.migrator import BackgroundMigrator
from repro.provisioning.policies import ProvisioningSchedule


def config():
    return ExperimentConfig(
        schedule=ProvisioningSchedule(40.0, [4, 3, 3, 4]),
        users_per_slot=[40, 30, 30, 40],
        num_cache_servers=4,
        num_web_servers=2,
        num_db_shards=2,
        catalogue_size=2500,
        cache_capacity_bytes=4096 * 1500,
        ttl=15.0,
        plot_slots=8,
        pages_per_user=40,  # revisit interval ~20 s > TTL: residue exists
        seed=9,
        warmup_seconds=10.0,
    )


def experiment(spec, push: bool):
    """A run of *spec*; with *push*, each transition the actuator opens
    gets a migrator (listed on ``experiment.migrators``)."""
    run = ClusterExperiment(spec, config())
    run.migrators = []
    if push:
        cache = run.testbed.cache
        apply_at = run.actuator.apply_at

        def apply_and_push(n_new, loop):
            record = apply_at(n_new, loop)
            transition = cache.transitions.current(loop.now)
            if record is not None and record.smooth and transition is not None:
                migrator = BackgroundMigrator(
                    cache, transition, batch_size=100, interval=1.0
                )
                migrator.install(loop)
                run.migrators.append(migrator)
            return record

        run.actuator.apply_at = apply_and_push
    return run


class TestPushThroughActuator:
    def test_actuator_creates_migrators_for_smooth_transitions(self):
        run = experiment(ScenarioSpec.proteus(), push=True)
        run.run()
        assert len(run.migrators) == 2  # 4->3 and 3->4
        assert all(m.done for m in run.migrators)
        assert sum(m.progress.pushed for m in run.migrators) > 0

    def test_push_reduces_db_pressure(self):
        without = experiment(ScenarioSpec.proteus(), push=False).run()
        with_push = experiment(ScenarioSpec.proteus(), push=True).run()
        assert with_push.db_requests <= without.db_requests
        assert with_push.hit_ratio >= without.hit_ratio - 0.005

    def test_abrupt_scenarios_never_push(self):
        run = experiment(ScenarioSpec.naive(), push=True)
        run.run()
        assert run.migrators == []
