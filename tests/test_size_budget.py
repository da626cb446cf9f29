"""Line-count budget for the placement stack, the Algorithm-2 core, its two
drivers, the live transport, parser and client, the simulated testbed and
its three experiments, and the tree.

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
    "core/ring.py": 325,
    "core/placement.py": 175,
    "core/router.py": 375,
    "core/retrieval.py": 850,
    "web/frontend.py": 265,
    "net/webtier.py": 374,
    "net/transport.py": 400,
    "net/parser.py": 475,
    "net/client.py": 730,
    "experiments/testbed.py": 200,
    "experiments/cluster.py": 325,
    "experiments/autopilot.py": 500,
    "experiments/failover.py": 125,
}
#: every line under src/repro — code size has a ratchet of its own
TREE_CEILING = 14_850


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
