"""Tests for the shared cluster configuration document."""

import asyncio
import json

import pytest

from repro.config import CONFIG_VERSION, ClusterConfig, DigestGeometry
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError

ENDPOINTS = [("cache-0", 11211), ("cache-1", 11211), ("cache-2", 11212)]
GEOMETRY = DigestGeometry(num_counters=4096, counter_bits=4, num_hashes=4)


def make(**overrides):
    kwargs = dict(endpoints=list(ENDPOINTS), digest=GEOMETRY)
    kwargs.update(overrides)
    return ClusterConfig(**kwargs)


class TestValidation:
    def test_happy_path(self):
        cfg = make()
        assert cfg.num_servers == 3
        assert cfg.version == CONFIG_VERSION

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            make(endpoints=[])

    def test_rejects_bad_ports_and_hosts(self):
        with pytest.raises(ConfigurationError):
            make(endpoints=[("h", 0)])
        with pytest.raises(ConfigurationError):
            make(endpoints=[("h", 70000)])
        with pytest.raises(ConfigurationError):
            make(endpoints=[("", 11211)])

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            make(ttl_seconds=0.0)
        with pytest.raises(ConfigurationError):
            make(replicas=0)
        with pytest.raises(ConfigurationError):
            make(ring_size=1)
        with pytest.raises(ConfigurationError):
            make(version=99)

    def test_digest_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            DigestGeometry(0, 4, 4)


class TestSerialization:
    def test_json_roundtrip(self):
        cfg = make(ttl_seconds=45.0, replicas=2, name="prod-eu")
        clone = ClusterConfig.from_json(cfg.to_json())
        assert clone == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = make()
        path = tmp_path / "cluster.json"
        cfg.save(path)
        assert ClusterConfig.load(path) == cfg

    def test_json_is_stable(self):
        cfg = make()
        assert cfg.to_json() == cfg.to_json()
        assert cfg.to_json().endswith("\n")

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_json("{not json")
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_json("{}")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ttl_policy", None, "unknown ttl policy None"),
            ("endpoints", [["h", 1, 2]], "malformed config"),
            ("endpoints", [["h", "x"]], "malformed config"),
            (None, "not an object", "malformed config"),
        ],
        ids=["null-ttl-policy", "endpoint-triple", "non-integer-port",
             "not-an-object"],
    )
    def test_malformed_fields_raise_configuration_error(
        self, field, value, message
    ):
        # The CLI reports ProteusError only: anything else is a traceback.
        payload = json.loads(make().to_json())
        if field is None:
            payload = value
        else:
            payload[field] = value
        with pytest.raises(ConfigurationError, match=message):
            ClusterConfig.from_json(json.dumps(payload))

    def test_version_check_on_load(self):
        text = make().to_json().replace('"version": 1', '"version": 2')
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_json(text)


class TestBuilders:
    def test_for_fleet_sizes_digest(self):
        cfg = ClusterConfig.for_fleet(ENDPOINTS, expected_keys_per_server=10_000)
        assert cfg.digest.counter_bits == 3  # the Eq. 10 optimum at 1e4 keys

    def test_build_router_unreplicated(self):
        cfg = make(replicas=1)
        router = cfg.build_router()
        assert router.num_servers == 3 and router.replicas == 1
        reference = ProteusRouter(3, ring_size=cfg.ring_size)
        keys = [f"k{i}" for i in range(50)]
        assert router.route_many(keys, 2) == reference.route_many(keys, 2)
        assert router.read_plans(keys, 2) == reference.read_plans(keys, 2)

    def test_build_router_replicated(self):
        router = make(replicas=2).build_router()
        assert type(router) is type(make(replicas=1).build_router())
        assert router.replicas == 2
        assert any(len(p) == 2 for p in router.read_plans(["a", "b", "c"], 3))

    def test_build_frontend_rejects_replicas(self):
        # The live frontend routes over one ring; building it from a
        # replicated config must fail loudly, not ignore the knob.
        async def db(key):
            return b"v"

        with pytest.raises(ConfigurationError, match="replicas=2"):
            make(replicas=2).build_frontend(db)

    def test_two_loads_route_identically(self, tmp_path):
        # The consistency objective, through the config round trip.
        cfg = make()
        path = tmp_path / "c.json"
        cfg.save(path)
        a = ClusterConfig.load(path).build_router()
        b = ClusterConfig.load(path).build_router()
        for i in range(50):
            assert a.route(f"k{i}", 2) == b.route(f"k{i}", 2)

    def test_build_frontend_end_to_end(self, tmp_path):
        # Full circle: config file -> frontend -> live servers.
        from repro.net.server import MemcachedServer

        async def body():
            servers = [
                MemcachedServer(bloom_config=GEOMETRY.to_bloom_config())
                for _ in range(2)
            ]
            endpoints = []
            for server in servers:
                port = await server.start()
                endpoints.append(("127.0.0.1", port))
            cfg = ClusterConfig(endpoints=endpoints, digest=GEOMETRY)
            path = tmp_path / "live.json"
            cfg.save(path)

            async def db(key):
                return b"from-db"

            frontend = ClusterConfig.load(path).build_frontend(db)
            async with frontend as web:
                result = await web.fetch("k")
                assert result.value == b"from-db" and result.path == "miss_db"
                result = await web.fetch("k")
                assert result.path == "hit_new"
            for server in servers:
                await server.stop()

        asyncio.run(body())


class TestTTLPolicyKnobs:
    def test_defaults_to_the_paper_fixed_window(self):
        from repro.provisioning.ttl import FixedTTLPolicy

        cfg = make()
        assert cfg.ttl_policy == "fixed"
        policy = cfg.build_ttl_policy()
        assert isinstance(policy, FixedTTLPolicy)
        assert policy.ttl_for() == cfg.ttl_seconds

    def test_adaptive_policy_carries_the_knobs(self):
        from repro.provisioning.ttl import AdaptiveTTLPolicy

        cfg = make(ttl_policy="adaptive", min_ttl_seconds=10.0,
                   max_ttl_seconds=90.0, ttl_target_residual=0.1)
        policy = cfg.build_ttl_policy()
        assert isinstance(policy, AdaptiveTTLPolicy)
        assert policy.min_ttl == 10.0
        assert policy.max_ttl == 90.0
        assert policy.target_residual == 0.1
        assert policy.ttl_for() == cfg.ttl_seconds  # inert until evidence

    def test_roundtrips_through_json(self):
        cfg = make(ttl_policy="adaptive", min_ttl_seconds=10.0)
        again = ClusterConfig.from_json(cfg.to_json())
        assert again.ttl_policy == "adaptive"
        assert again.min_ttl_seconds == 10.0

    def test_rejects_bad_ttl_knobs(self):
        with pytest.raises(ConfigurationError):
            make(ttl_policy="random")
        with pytest.raises(ConfigurationError):
            make(min_ttl_seconds=0.0)
        with pytest.raises(ConfigurationError):
            make(min_ttl_seconds=50.0, max_ttl_seconds=10.0)
        with pytest.raises(ConfigurationError):
            make(ttl_target_residual=1.5)


class TestOverloadArmorKnobs:
    def test_defaults_disable_everything(self):
        cfg = make()
        assert cfg.retry_budget_ratio == 0.0
        assert cfg.limiter_window == 0
        assert cfg.admission_window == 0
        assert cfg.max_inflight_per_conn == 0
        assert cfg.build_resilience() is None
        assert cfg.build_admission() is None

    def test_rejects_negative_knobs(self):
        with pytest.raises(ConfigurationError):
            make(retry_budget_ratio=-0.1)
        with pytest.raises(ConfigurationError):
            make(limiter_window=-1)
        with pytest.raises(ConfigurationError):
            make(admission_window=-1)
        with pytest.raises(ConfigurationError):
            make(max_inflight_per_conn=-1)

    def test_roundtrips_through_json(self):
        cfg = make(
            retry_budget_ratio=0.2,
            limiter_window=32,
            admission_window=16,
            max_inflight_per_conn=64,
        )
        again = ClusterConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.retry_budget_ratio == 0.2
        assert again.limiter_window == 32
        assert again.admission_window == 16
        assert again.max_inflight_per_conn == 64

    def test_build_resilience_arms_the_policy(self):
        cfg = make(retry_budget_ratio=0.2, limiter_window=32)
        policy = cfg.build_resilience()
        assert policy.retry_budget_ratio == 0.2
        assert policy.limiter_window == 32
        assert policy.new_retry_budget() is not None
        assert policy.new_limiter() is not None

    def test_build_admission_sizes_the_window(self):
        from repro.resilience import ConcurrencyAdmission

        admission = make(admission_window=16).build_admission()
        assert isinstance(admission, ConcurrencyAdmission)
        assert admission.limiter.limit == 16.0

    def test_build_frontend_wires_the_armor(self):
        cfg = make(
            retry_budget_ratio=0.2,
            limiter_window=32,
            admission_window=16,
            max_inflight_per_conn=64,
        )

        async def db(key):
            return b"v"

        web = cfg.build_frontend(db)
        assert web.transport.retry_budget is not None
        assert all(lim is not None for lim in web.transport.limiters)
        assert web.admission is not None
        assert web.transport.max_inflight_per_conn == 64

    def test_build_frontend_default_has_no_armor(self):
        async def db(key):
            return b"v"

        web = make().build_frontend(db)
        assert web.transport.retry_budget is None
        assert web.transport.limiters == [None] * 3
        assert web.admission is None
        assert web.transport.max_inflight_per_conn is None
