"""The component registry (repro.core.registry)."""

import pytest

from repro.config import ClusterConfig
from repro.core.registry import Registry
from repro.core.router import ROUTER_SCENARIOS, ProteusRouter, make_router
from repro.errors import ConfigurationError
from repro.provisioning.ttl import make_ttl_policy


class TestRegistry:
    def test_register_and_create(self):
        reg = Registry("widget")
        reg.register("box", dict)
        assert reg.create("box", a=1) == {"a": 1}

    def test_names_preserve_registration_order(self):
        reg = Registry("widget")
        reg.register("z", dict)
        reg.register("a", dict)
        assert reg.names == ("z", "a")

    def test_lookup_is_case_insensitive(self):
        reg = Registry("widget")
        reg.register("Box", dict)
        assert reg.check("BOX") == "box"
        assert reg.check(" box ") == "box"

    def test_unknown_name_error_lists_valid_names(self):
        reg = Registry("widget")
        reg.register("box", dict)
        reg.register("crate", dict)
        with pytest.raises(ConfigurationError) as err:
            reg.create("barrel")
        assert "unknown widget 'barrel'" in str(err.value)
        assert "box, crate" in str(err.value)

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("box", dict)
        with pytest.raises(ConfigurationError):
            reg.register("BOX", list)

    def test_check_rejects_non_strings(self):
        reg = Registry("widget")
        reg.register("box", dict)
        for name in (3, None):
            with pytest.raises(ConfigurationError, match="unknown widget"):
                reg.check(name)


class TestSharedRegistries:
    def test_router_scenarios_back_make_router(self):
        assert ROUTER_SCENARIOS.names == (
            "static", "naive", "consistent", "proteus",
        )
        assert isinstance(make_router("proteus", 4), ProteusRouter)

    def test_unified_error_message_everywhere(self):
        with pytest.raises(ConfigurationError) as from_factory:
            make_router("zeta", 4)
        with pytest.raises(ConfigurationError) as from_registry:
            ROUTER_SCENARIOS.check("zeta")
        assert "unknown scenario 'zeta' (expected one of static, " in str(
            from_factory.value
        )
        assert str(from_factory.value) == str(from_registry.value)

        endpoints = [("h", 11211)]
        with pytest.raises(ConfigurationError) as from_config:
            ClusterConfig.for_fleet(endpoints, 100, ttl_policy="zeta")
        with pytest.raises(ConfigurationError) as from_policy:
            make_ttl_policy("zeta")
        assert str(from_config.value) == str(from_policy.value)
