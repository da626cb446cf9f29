"""Socket-free tests of the pieces a wrong number would hide in.

Run explicitly (``testpaths`` keeps this out of the tier-1 suite)::

    python -m pytest benchmarks/e2e -q
"""

import asyncio
import json
import math
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
from harness import SetUp, Slice  # noqa: E402


# ------------------------------------------------------------- key streams


def _first_pages(seed: int):
    uniform = harness.uniform_pages(harness.stream_rng(seed, 2, 0), 20_000, 64, 3)
    single = harness.uniform_pages(harness.stream_rng(seed, 1, 1), 20_000, 1, 5)
    zipf = harness.zipf_pages(
        harness.stream_rng(seed, 4, 0), harness.zipf_cdf(40_000, 0.9), 16, 3
    )
    return [uniform, single, zipf]


def test_key_streams_are_identical_across_processes():
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "import test_harness; print(json.dumps(test_harness._first_pages(7)))"
    )
    other = subprocess.run(
        [sys.executable, "-c", script, str(HERE)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(other.stdout) == _first_pages(7)


def test_streams_differ_by_seed_workload_and_fetcher():
    def draw(*ids):
        return harness.stream_rng(*ids).integers(0, 1 << 30, 8).tolist()
    assert len({tuple(draw(*ids)) for ids in
                [(1, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)]}) == 4


def test_pages_hold_distinct_keys_of_the_universe():
    for page in harness.uniform_pages(harness.stream_rng(1, 2, 0), 100, 64, 20):
        assert len(set(page)) == 64 and all(0 <= i < 100 for i in page)
    cdf = harness.zipf_cdf(50, 0.9)
    pages = harness.zipf_pages(harness.stream_rng(1, 4, 0), cdf, 16, 50)
    for page in pages:
        assert len(set(page)) == 16 and all(0 <= i < 50 for i in page)
    drawn = [i for page in pages for i in page]
    assert drawn.count(0) > drawn.count(49)  # index 0 is the popular one


def test_values_are_checkable_against_their_key():
    value = harness.make_value("page:7", 128)
    assert len(value) == 128 and value.startswith(b"page:7:")
    assert value != harness.make_value("page:70", 128)


def test_lru_contents_is_what_an_lru_would_hold():
    held = harness.lru_contents(
        [0, 1, 2, 0, 3, 4, 1], owner_of=[0, 0, 0, 0, 1], servers=2, capacity=2
    )
    assert held == [[3, 1], [4]]  # eviction order: next victim first


def test_work_unit_does_the_same_work_every_time():
    assert harness.work_unit() == harness.work_unit() > 64


# --------------------------------------------------------------- arithmetic


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.95) == 95
    assert harness.percentile(values, 1.0) == 100
    assert harness.percentile([3.0], 0.5) == 3.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def _slice(latency, unit, pages=10, **kwargs):
    return Slice(
        latencies=[latency] * pages, wall=latency * pages / 2, cpu=0.5,
        unit_before=unit, unit_after=unit, keys=pages * 4, **kwargs
    )


def test_fold_divides_each_slice_by_its_own_unit():
    # The machine runs 1.3x slower in every second slice: latency and
    # work unit stretch together, and the normalised figures do not move.
    slices = [_slice(0.004, 0.001), _slice(0.0052, 0.0013)] * 2
    # Set-ups are quoted at the nominal unit: the 6-second one ran on a
    # machine three times slower than nominal, so it reads as 2 seconds.
    nominal = harness.NOMINAL_UNIT
    folded = harness.fold(slices, [
        SetUp(3.0, nominal), SetUp(1.0, nominal), SetUp(6.0, 3 * nominal),
    ])
    assert folded.metrics["setup_s"] == pytest.approx(2.0)
    assert folded.raw["setup_wall_s"] == 3.0
    assert folded.metrics["page_p50_wu"] == pytest.approx(4.0)
    assert folded.metrics["page_p90_wu"] == pytest.approx(4.0)
    assert folded.metrics["page_cost_wu"] == pytest.approx(2.0)
    # 4 slices x 0.5 cpu-seconds over 2 x (10 x 0.001 + 10 x 0.0013)
    assert folded.metrics["cluster_cpu_wu"] == pytest.approx(2.0 / 0.046)
    assert folded.metrics["cache_served_per_kkey"] == 1000.0
    assert folded.raw["pages"] == 40 and folded.attempted == 160


def test_fold_counts_database_reads_and_failures_on_every_slice():
    slices = [_slice(0.004, 0.001, db_reads=10, failed=1),
              _slice(0.004, 0.001, db_reads=0)]
    folded = harness.fold(slices, [SetUp(1.0, 1e-4)])
    assert folded.metrics["cache_served_per_kkey"] == pytest.approx(875.0)
    assert folded.raw["db_reads_per_kkey"] == pytest.approx(125.0)
    assert folded.failed == 1 and folded.attempted == 80


# -------------------------------------------------------------- noise guard


def test_guard_flags_a_unit_that_moved_across_the_slice():
    before = [100.0, 100.0, 100.0, 100.0]
    after = [101.0, 130.0, 99.0, 100.0]
    assert harness.noisy_slices(before, after) == [False, True, False, False]


def test_guard_flags_a_slice_on_a_slow_machine():
    before = after = [100.0, 100.0, 100.0, 100.0, 100.0, 160.0]
    assert harness.noisy_slices(before, after) == [False] * 5 + [True]


def test_guard_needs_four_slices_to_judge_the_level():
    assert harness.noisy_slices([100.0, 300.0], [100.0, 300.0]) == [False, False]


def test_usable_slices_gives_up_beyond_half():
    assert harness.usable_slices([False, True, False, False]) == [0, 2, 3]
    assert harness.usable_slices([False, True, True, False]) == [0, 3]
    assert harness.usable_slices([True, True, True, False]) is None


def test_fold_drops_noisy_slices_from_timed_figures_only():
    clean = [_slice(0.004, 0.001, db_reads=1) for _ in range(5)]
    slow = Slice(latencies=[0.1] * 10, wall=0.5, cpu=0.5, unit_before=0.001,
                 unit_after=0.002, keys=40, db_reads=1)
    folded = harness.fold(clean + [slow], [SetUp(1.0, 1e-4)])
    assert folded.raw["noisy_slices"] == 1 and not folded.unresolved
    assert folded.metrics["page_p90_wu"] == pytest.approx(4.0)
    assert folded.raw["page_p99_wu"] == pytest.approx(4.0)
    assert folded.raw["db_reads_per_kkey"] == pytest.approx(1000 * 6 / 240)


# ------------------------------------------------------------------ tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_with_nested_and_sibling_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.work(1.0)

    leaf = tracer.wrap("leaf", "leaf", leaf)

    def middle():
        clock.work(2.0)
        leaf()
        clock.work(3.0)

    middle = tracer.wrap("middle", "middle", middle)

    def fetch_many():  # a root: recording starts here
        clock.work(10.0)
        middle()
        leaf()
        middle()
        clock.work(20.0)

    leaf()  # before any root: not recorded
    tracer.wrap("root", "fetch_many", fetch_many)()
    root = tracer.spans[0]
    assert root.name == "fetch_many" and root.end - root.start == 43.0
    assert root.busy == 30.0                      # 43 - 6 - 1 - 6
    busy = {}
    for span in tracer.spans:
        busy[span.layer] = busy.get(span.layer, 0.0) + span.busy
        assert span.page == root.id
    assert busy == {"root": 30.0, "middle": 10.0, "leaf": 3.0}
    nested = [s for s in tracer.spans if s.layer == "leaf"]
    assert [tracer.spans[s.parent].layer for s in nested] == \
        ["middle", "root", "middle"]


def test_coroutine_spans_exclude_the_time_spent_waiting():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    async def get_multi(gate):
        clock.work(1.0)
        await gate            # somebody else's time
        clock.work(2.0)
        return "reply"

    get_multi = tracer.wrap("net.client", "get_multi", get_multi)

    async def fetch_many():
        gate = asyncio.get_running_loop().create_future()
        asyncio.get_running_loop().call_soon(
            lambda: (clock.work(100.0), gate.set_result(None))
        )
        clock.work(4.0)
        return await get_multi(gate)

    fetch_many = tracer.wrap("net.webtier", "fetch_many", fetch_many)

    async def page():
        return await fetch_many()

    assert asyncio.run(page()) == "reply"
    root, rpc = tracer.spans
    assert rpc.busy == 3.0 and rpc.end - rpc.start == 103.0
    assert root.busy == 4.0 and root.end - root.start == 107.0


def test_generator_spans_time_each_step_and_count_what_was_yielded():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def retrieve_many():
        clock.work(1.0)
        answers = yield ("probe-a", "probe-b")
        clock.work(2.0)
        yield ("write-back",)
        clock.work(4.0)
        return answers

    retrieve_many = tracer.wrap("core.retrieval", "retrieve_many", retrieve_many)

    def fetch_many():
        steps = retrieve_many()
        steps.send(None)
        clock.work(50.0)       # the driver's own time between rounds
        steps.send("answers")
        with pytest.raises(StopIteration) as stop:
            steps.send(None)
        assert stop.value.value == "answers"

    tracer.wrap("net.webtier", "fetch_many", fetch_many)()
    engine = tracer.spans[1]
    assert engine.busy == 7.0 and engine.steps == 2 and engine.note == 3
    assert tracer.spans[0].busy == 50.0


def test_missing_entry_point_yields_null_not_a_crash(monkeypatch):
    fake = types.ModuleType("fake_layer_module")
    fake.present = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer_module", fake)
    monkeypatch.setattr(tracing, "LAYERS", {
        "gone.function": ("fake_layer_module:present",
                          "fake_layer_module:renamed_away"),
        "gone.module": ("no_such_module_anywhere:f",),
        "kept": ("fake_layer_module:present",),
    })
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    try:
        assert set(tracer.missing) == {"gone.function", "gone.module"}
        assert len(caught) == 2
        assert fake.present.__wrapped__  # the resolvable layer is shimmed
    finally:
        tracer.uninstall()
    assert not hasattr(fake.present, "__wrapped__")
    tracer.wrap("net.webtier", "fetch_many", lambda: clock.work(1.0))()
    metrics = tracing.per_layer(tracer, pages=1, extras={})
    assert metrics["gone.function.calls_per_page"] is None
    assert metrics["gone.module.busy_frac"] is None
    assert metrics["kept.calls_per_page"] == 0.0


def test_shims_reach_overriding_subclasses_and_by_name_imports(monkeypatch):
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    class Router:
        def route_many(self):
            return "base"

    class RingRouter(Router):
        def route_many(self):
            return "ring"

    def helper():
        return "helped"

    base.Router, base.helper, user.helper = Router, helper, helper
    monkeypatch.setitem(sys.modules, "fakepkg.base", base)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    monkeypatch.setattr(tracing, "LAYERS", {
        "router": ("fakepkg.base:Router.route_many",),
        "helper": ("fakepkg.base:helper",),
    })
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert RingRouter().route_many() == "ring"   # its own body, shimmed
        assert hasattr(vars(RingRouter)["route_many"], "__wrapped__")
        assert hasattr(user.helper, "__wrapped__")
    finally:
        tracer.uninstall()
    assert user.helper is helper and vars(RingRouter)["route_many"].__name__ == "route_many"
    assert not hasattr(vars(RingRouter)["route_many"], "__wrapped__")


def test_busy_fractions_and_the_unattributed_rest_sum_to_one():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    get = tracer.wrap("cache.store", "get", lambda: clock.work(1.0))

    def fetch_many():
        get()
        clock.work(2.0)
        get()

    root = tracer.wrap("net.webtier", "fetch_many", fetch_many)
    root()
    root()
    metrics = tracing.per_layer(tracer, pages=2, extras={"trace.overhead_frac": 0.1})
    fractions = [v for k, v in metrics.items() if k.endswith(".busy_frac")]
    assert math.isclose(sum(fractions) + metrics["loop.unattributed_frac"], 1.0)
    assert metrics["cache.store.calls_per_page"] == 2.0
    assert metrics["cache.store.gets_per_page"] == 2.0
    assert metrics["cache.store.busy_frac"] == pytest.approx(0.5)
    assert metrics["net.webtier.busy_frac"] == pytest.approx(0.5)
    assert metrics["trace.overhead_frac"] == 0.1
