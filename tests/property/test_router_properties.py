"""Property-based tests for routing invariants shared by all scenarios.

:class:`TestRingRouterContract` holds both ring routers — Proteus
(Algorithm 1) and Consistent (random virtual nodes, the n^2/2 Table II
baseline) — to one contract:

* every owner is in the active set ``[0, num_active)``, for every prefix;
* the batched ``route_many`` equals the scalar ``route`` loop exactly;
* a ±1-server resize remaps a bounded fraction of keys — near the
  Section II lower bound ``1/max(n, n')``, never a Naive-style reshuffle;
* ceding metadata is sound for scale-down *and* scale-up: every key whose
  owner changes was owned by a *ceding* server under the old epoch (the
  digest-broadcast set really covers all movers);
* decisions are deterministic across processes — no ``PYTHONHASHSEED``
  or other per-process state leaks into routing (independent web servers
  must agree, paper Section I objective 3).
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import remap_fraction
from repro.core.migration import migration_lower_bound
from repro.core.router import ConsistentRouter, NaiveRouter, ProteusRouter

keys = st.text(min_size=1, max_size=30)

RING_ROUTERS = ["proteus", "consistent"]


def build(name: str, num_servers: int):
    """One of the two ring routers (a small ring keeps Algorithm 1 instant)."""
    if name == "proteus":
        return ProteusRouter(num_servers, ring_size=2 ** 20)
    return ConsistentRouter.quadratic_variant(num_servers)


def keys_for(seed: int, count: int = 512):
    return [f"key:{seed}:{i}" for i in range(count)]


@given(key=keys, data=st.data())
@settings(max_examples=80, deadline=None)
def test_routes_always_land_on_an_active_server(key, data):
    num_servers = data.draw(st.integers(min_value=1, max_value=12))
    n = data.draw(st.integers(min_value=1, max_value=num_servers))
    router = ProteusRouter(num_servers, ring_size=2 ** 24)
    assert 0 <= router.route(key, n) < n


@given(key=keys, data=st.data())
@settings(max_examples=80, deadline=None)
def test_routing_is_deterministic(key, data):
    num_servers = data.draw(st.integers(min_value=1, max_value=10))
    n = data.draw(st.integers(min_value=1, max_value=num_servers))
    a = ProteusRouter(num_servers, ring_size=2 ** 24)
    b = ProteusRouter(num_servers, ring_size=2 ** 24)
    # Two independently built routers (different web servers) must agree.
    assert a.route(key, n) == b.route(key, n)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_proteus_monotone_routing_under_scale_down(data):
    # Scale-down n -> m (m < n) may only move keys whose owner powered off
    # (owner id >= m).  Keys owned by a surviving server never move.
    num_servers = data.draw(st.integers(min_value=2, max_value=10))
    n = data.draw(st.integers(min_value=2, max_value=num_servers))
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    router = ProteusRouter(num_servers, ring_size=2 ** 24)
    for i in range(40):
        key = f"key-{i}"
        before = router.route(key, n)
        after = router.route(key, m)
        if before < m:
            assert after == before
        else:
            assert after < m


@given(
    n_old=st.integers(min_value=1, max_value=20),
    n_new=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_lower_bound_is_symmetric_and_bounded(n_old, n_new):
    bound = migration_lower_bound(n_old, n_new)
    assert bound == migration_lower_bound(n_new, n_old)
    assert 0 <= bound < 1


@given(key=keys, data=st.data())
@settings(max_examples=60, deadline=None)
def test_naive_router_in_range(key, data):
    num_servers = data.draw(st.integers(min_value=1, max_value=12))
    n = data.draw(st.integers(min_value=1, max_value=num_servers))
    assert 0 <= NaiveRouter(num_servers).route(key, n) < n


@pytest.mark.parametrize("name", RING_ROUTERS)
class TestRingRouterContract:
    @settings(max_examples=20, deadline=None)
    @given(num_servers=st.integers(2, 24), seed=st.integers(0, 2 ** 16))
    def test_full_coverage_of_active_set(self, name, num_servers, seed):
        router = build(name, num_servers)
        batch = keys_for(seed)
        for num_active in {1, 2, num_servers // 2 or 1, num_servers}:
            owners = router.route_many(batch, num_active)
            assert min(owners) >= 0
            assert max(owners) < num_active

    @settings(max_examples=20, deadline=None)
    @given(num_servers=st.integers(2, 16), seed=st.integers(0, 2 ** 16))
    def test_batch_matches_scalar(self, name, num_servers, seed):
        router = build(name, num_servers)
        batch = keys_for(seed, count=128)
        for num_active in {1, num_servers - 1, num_servers}:
            scalar = [router.route(key, num_active) for key in batch]
            assert router.route_many(batch, num_active) == scalar

    @settings(max_examples=10, deadline=None)
    @given(num_servers=st.integers(3, 24), seed=st.integers(0, 2 ** 16))
    def test_bounded_remap_on_single_step_resize(self, name, num_servers, seed):
        router = build(name, num_servers)
        batch = keys_for(seed, count=4000)
        n_new = num_servers - 1
        old = router.route_many(batch, num_servers)
        new = router.route_many(batch, n_new)
        # remap_fraction(old, new) is symmetric, so this simultaneously
        # measures the n-1 -> n scale-up.  Proteus is exact, random
        # vnodes near-minimal: 3x the bound plus sampling slack rejects
        # any Naive-style reshuffle (which remaps ~1 - 1/n).
        expected = migration_lower_bound(num_servers, n_new)
        assert remap_fraction(old, new) <= 3.0 * expected + 0.05

    @settings(max_examples=10, deadline=None)
    @given(num_servers=st.integers(3, 20), seed=st.integers(0, 2 ** 16))
    def test_ceding_servers_cover_all_movers(self, name, num_servers, seed):
        router = build(name, num_servers)
        batch = keys_for(seed, count=2000)
        smaller = (num_servers - 1, num_servers - 2 or 1)
        resizes = [(num_servers, n) for n in smaller]  # scale-down
        resizes += [(n, num_servers) for n in smaller]  # scale-up
        for n_old, n_new in resizes:
            old = router.route_many(batch, n_old)
            new = router.route_many(batch, n_new)
            movers = {a for a, b in zip(old, new) if a != b}
            assert movers <= set(router.ceding_servers(n_old, n_new))

    def test_deterministic_across_processes(self, name):
        """Re-derive owners in a fresh interpreter: equality means no
        per-process state (hash randomization, id()s) leaks into routing."""
        here = build(name, 12).route_many(keys_for(99, count=64), 7)
        script = (
            "from tests.property.test_router_properties import build, keys_for\n"
            f"print(build({name!r}, 12).route_many(keys_for(99, count=64), 7))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert eval(out.stdout.strip()) == here

    def test_expected_remap_is_the_lower_bound(self, name):
        assert migration_lower_bound(12, 9) == pytest.approx(3 / 12)
        assert migration_lower_bound(9, 12) == pytest.approx(3 / 12)


def test_proteus_empirical_remap_is_minimal():
    router = ProteusRouter(16, ring_size=2 ** 20)
    batch = keys_for(5, count=20000)
    measured = remap_fraction(
        router.route_many(batch, 16), router.route_many(batch, 12)
    )
    assert measured == pytest.approx(4 / 16, abs=0.02)
