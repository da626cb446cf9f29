"""The ``--check`` ratchet every gated bench shares.

A gated bench commits its report as ``BENCH_<name>.json``; ``--check``
re-runs it and compares one headline number against the committed one
without rewriting the file.  The comparison, its one-line verdict and the
report writer live here so the benches differ only in *which* number
they ratchet and how far it may move.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional


def load_committed(path: Path) -> Optional[Dict[str, object]]:
    """The committed report, or ``None`` (after saying so) when there is
    no baseline to ratchet against — callers exit 1."""
    if not path.exists():
        print(f"{path.name} missing: commit a baseline first")
        return None
    return json.loads(path.read_text())


def check(
    label: str,
    new: float,
    old: float,
    limit: float,
    better: str,
    unit: str = "",
    digits: Optional[int] = None,
) -> bool:
    """Print the verdict line for one ratcheted number; True when *new*
    is on the right side of *limit* (``better`` is ``"lower"`` or
    ``"higher"``).  *digits* rounds the printed limit only."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    ok = new <= limit if better == "lower" else new >= limit
    shown = limit if digits is None else f"{limit:.{digits}f}"
    print(f"ratchet: {label} {new}{unit} vs committed {old}{unit} "
          f"(limit {shown}{unit}): {'OK' if ok else 'REGRESSED'}")
    return ok


def write_report(path: Path, report: Dict[str, object]) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.name}")
