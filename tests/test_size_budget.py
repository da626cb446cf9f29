"""Line-count budget for the placement stack, the Algorithm-2 core, its
transition manager and hot-key armor, its two drivers, the live
transport, pool, protocol, parser and client, the cache node's store and
both servers, the simulated testbed with its one experiment runner and
its Table II scenario table, the Fig. 5 load-balance replay, the health
monitor, and the tree.

ROADMAP aim 2 tracks these files' sizes like a benchmark: one algorithm,
one implementation, and growth is a deliberate edit of this table, not an
accident.  Ceilings are the counts as of the PR that set them, rounded up
to the next 25; ratchet them *down* when a PR shrinks a file.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: file (relative to src/repro) -> maximum number of lines
CEILINGS = {
    "core/ring.py": 265,
    "core/placement.py": 152,
    "core/router.py": 300,
    "core/hotkey.py": 268,
    "core/transition.py": 247,
    "core/retrieval.py": 792,
    "web/frontend.py": 225,
    "net/webtier.py": 351,
    "net/transport.py": 300,
    "net/parser.py": 478,
    "net/client.py": 540,
    "net/pool.py": 185,
    "net/protocol.py": 228,
    "experiments/testbed.py": 719,
    "experiments/loadbalance.py": 95,
    "cache/cluster.py": 186,
    "config.py": 181,
    "provisioning/health.py": 167,
    "cache/store.py": 256,
    "cache/server.py": 138,
    "cache/item.py": 44,
    "cache/stats.py": 28,
    "net/server.py": 408,
}
#: every line under src/repro — code size has a ratchet of its own
TREE_CEILING = 11_026


@pytest.mark.parametrize("relative", sorted(CEILINGS))
def test_file_stays_within_its_line_budget(relative):
    lines = len((SRC / relative).read_text().splitlines())
    assert lines <= CEILINGS[relative], (
        f"src/repro/{relative} grew to {lines} lines (budget "
        f"{CEILINGS[relative]}); shrink it, or raise the ceiling in "
        "tests/test_size_budget.py on purpose"
    )


def test_whole_tree_stays_within_its_line_budget():
    lines = sum(
        len(path.read_text().splitlines()) for path in SRC.rglob("*.py")
    )
    assert lines <= TREE_CEILING, (
        f"src/repro grew to {lines} lines (budget {TREE_CEILING}); delete "
        "something, or raise TREE_CEILING in tests/test_size_budget.py on "
        "purpose"
    )
