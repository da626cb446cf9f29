"""Line-count budget for the placement stack, the Algorithm-2 core, its
transition manager and hot-key armor, its two drivers, the live
transport, parser and client, the simulated testbed with its one
experiment runner, and the tree.

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
    "core/ring.py": 316,
    "core/placement.py": 152,
    "core/router.py": 381,
    "core/hotkey.py": 317,
    "core/transition.py": 261,
    "core/retrieval.py": 800,
    "web/frontend.py": 237,
    "net/webtier.py": 364,
    "net/transport.py": 307,
    "net/parser.py": 490,
    "net/client.py": 606,
    "experiments/testbed.py": 743,
    "config.py": 181,
    "provisioning/actuator.py": 94,
}
#: every line under src/repro — code size has a ratchet of its own
TREE_CEILING = 12_486


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
