"""Tests for the shared cluster configuration document."""

import asyncio
import json

import pytest

from repro.config import CONFIG_VERSION, ClusterConfig, DigestGeometry
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError

ENDPOINTS = [("cache-0", 11211), ("cache-1", 11211), ("cache-2", 11212)]
GEOMETRY = DigestGeometry(num_counters=4096, counter_bits=4, num_hashes=4)


#: what ``python -m repro config-init --endpoints
#: 127.0.0.1:11211,127.0.0.1:11212`` wrote before the overload, hot-key and
#: adaptive-clamp knobs left the config
VERSION_1_FILE = """{
  "admission_window": 0,
  "d_choices": 1,
  "digest": {
    "counter_bits": 3,
    "num_counters": 3796489,
    "num_hashes": 4
  },
  "endpoints": [
    [
      "127.0.0.1",
      11211
    ],
    [
      "127.0.0.1",
      11212
    ]
  ],
  "hot_key_cache": false,
  "limiter_window": 0,
  "max_inflight_per_conn": 0,
  "max_ttl_seconds": 300.0,
  "min_ttl_seconds": 5.0,
  "name": "proteus",
  "replicas": 1,
  "retry_budget_ratio": 0.0,
  "ring_size": 4294967296,
  "ttl_policy": "fixed",
  "ttl_seconds": 60.0,
  "ttl_target_residual": 0.05,
  "version": 1
}
"""

#: what the same command wrote before the drain window lost its sizing
#: policy
VERSION_2_FILE = """{
  "digest": {
    "counter_bits": 3,
    "num_counters": 3796489,
    "num_hashes": 4
  },
  "endpoints": [
    [
      "127.0.0.1",
      11211
    ],
    [
      "127.0.0.1",
      11212
    ]
  ],
  "name": "proteus",
  "replicas": 1,
  "ttl_policy": "fixed",
  "ttl_seconds": 60.0,
  "version": 2
}
"""


def make(**overrides):
    kwargs = dict(endpoints=list(ENDPOINTS), digest=GEOMETRY)
    kwargs.update(overrides)
    return ClusterConfig(**kwargs)


class TestValidation:
    def test_happy_path(self):
        cfg = make()
        assert cfg.num_servers == 3
        assert json.loads(cfg.to_json())["version"] == CONFIG_VERSION == 3

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
            ("ttl_policy", None, "malformed config"),
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
        with pytest.raises(
            ConfigurationError, match="unsupported config version 1"
        ):
            ClusterConfig.from_json(VERSION_1_FILE)
        text = make().to_json().replace('"version": 3', '"version": 4')
        with pytest.raises(
            ConfigurationError, match="unsupported config version 4"
        ):
            ClusterConfig.from_json(text)

    def test_version_2_file_fails_on_its_version_not_its_fields(self):
        # Its retired ``ttl_policy`` must not be what the user is told.
        with pytest.raises(ConfigurationError) as err:
            ClusterConfig.from_json(VERSION_2_FILE)
        assert "unsupported config version 2" in str(err.value)
        assert "malformed" not in str(err.value)
        assert "ttl_policy" not in str(err.value)


class TestBuilders:
    def test_for_fleet_sizes_digest(self):
        cfg = ClusterConfig.for_fleet(ENDPOINTS, expected_keys_per_server=10_000)
        assert cfg.digest.counter_bits == 3  # the Eq. 10 optimum at 1e4 keys

    def test_build_router_unreplicated(self):
        cfg = make(replicas=1)
        router = cfg.build_router()
        assert router.num_servers == 3 and router.replicas == 1
        reference = ProteusRouter(3)
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


class TestOverloadArmorKnobs:
    """The config carries no overload knob: armor is set on the frontend."""

    RETIRED = ("retry_budget_ratio", "limiter_window", "admission_window",
               "max_inflight_per_conn")

    def test_defaults_disable_everything(self):
        payload = json.loads(make().to_json())
        assert set(payload) == {
            "endpoints", "digest", "ttl_seconds", "replicas", "name",
            "version",
        }

    def test_rejects_negative_knobs(self):
        # A knob the config no longer has fails the load, whatever its value.
        for knob in self.RETIRED:
            payload = json.loads(make().to_json())
            payload[knob] = -1
            with pytest.raises(ConfigurationError, match="malformed config"):
                ClusterConfig.from_json(json.dumps(payload))

    def test_build_frontend_default_has_no_armor(self):
        async def db(key):
            return b"v"

        assert make().build_frontend(db).admission is None
