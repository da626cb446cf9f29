"""Closed-loop synthetic users — the paper's RBE workload (Section V-A1).

Each simulated user has an independent, randomly selected personal page set
(50 pages in the paper's Fig. 9 runs), a 0.5 s think time, and an
exponentially distributed session duration.  A user issues a request, waits
for the response, thinks, and repeats until the session ends.  The number of
concurrently active users follows a target curve derived from the trace
envelope — that is exactly how the paper drives its synthetic workload
("the total number of active users is dynamic and based on wikipedia
trace").

Closed-loop matters: when the database tier backs up during a bad
transition, closed-loop users slow down with it, which shapes the Fig. 9
spike; an open-loop generator would overstate the blowup.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.workload.zipf import ZipfSampler

#: Paper defaults (Section V-A1 / VI-C).
DEFAULT_THINK_TIME = 0.5
DEFAULT_PAGES_PER_USER = 50


class SyntheticUser:
    """One RBE user: a personal page set and a think-time loop."""

    __slots__ = ("user_id", "pages", "think_time", "_rng")

    def __init__(
        self,
        user_id: int,
        pages: Sequence[str],
        think_time: float = DEFAULT_THINK_TIME,
        seed: int = 0,
    ) -> None:
        if not pages:
            raise ConfigurationError("a user needs at least one page")
        if think_time < 0:
            raise ConfigurationError(f"think_time must be >= 0, got {think_time}")
        self.user_id = user_id
        self.pages = list(pages)
        self.think_time = think_time
        self._rng = random.Random((seed << 20) ^ user_id)

    def next_key(self) -> str:
        """The page this user requests next (uniform over the personal set)."""
        return self._rng.choice(self.pages)

    def next_think(self) -> float:
        """Seconds the user thinks before the next request."""
        return self.think_time


class UserPopulation:
    """Spawns users whose page sets are drawn from the global popularity.

    Args:
        catalogue_size: distinct pages in the system.
        pages_per_user: personal page-set size (paper: 50).
        think_time: per-user think time (paper: 0.5 s).
        alpha: Zipf exponent used to bias personal sets toward popular pages.
        seed: master seed.

    Page keys are ``page:{page_id}``.
    """

    def __init__(
        self,
        catalogue_size: int,
        pages_per_user: int = DEFAULT_PAGES_PER_USER,
        think_time: float = DEFAULT_THINK_TIME,
        alpha: float = 0.9,
        seed: int = 0,
    ) -> None:
        if catalogue_size < 1:
            raise ConfigurationError(
                f"catalogue_size must be >= 1, got {catalogue_size}"
            )
        if pages_per_user < 1:
            raise ConfigurationError(
                f"pages_per_user must be >= 1, got {pages_per_user}"
            )
        self.pages_per_user = pages_per_user
        self.think_time = think_time
        self.seed = seed
        self._sampler = ZipfSampler(catalogue_size, alpha=alpha, seed=seed)
        self._next_user_id = 0
        self.active: List[SyntheticUser] = []

    def _draw_pages(self) -> List[str]:
        page_ids = self._sampler.sample_many(self.pages_per_user)
        return [f"page:{int(p)}" for p in page_ids]

    def spawn(self) -> SyntheticUser:
        """Create and register one new active user."""
        user = SyntheticUser(
            user_id=self._next_user_id,
            pages=self._draw_pages(),
            think_time=self.think_time,
            seed=self.seed,
        )
        self._next_user_id += 1
        self.active.append(user)
        return user

    def retire(self) -> Optional[SyntheticUser]:
        """Remove and return the oldest active user (session end)."""
        if not self.active:
            return None
        return self.active.pop(0)

    def resize_to(self, target: int) -> "PopulationDelta":
        """Spawn/retire users until exactly *target* are active.

        Returns the delta so the driver can schedule first requests for the
        newcomers and stop the leavers' loops.
        """
        if target < 0:
            raise ConfigurationError(f"target must be >= 0, got {target}")
        spawned: List[SyntheticUser] = []
        retired: List[SyntheticUser] = []
        while len(self.active) < target:
            spawned.append(self.spawn())
        while len(self.active) > target:
            leaver = self.retire()
            assert leaver is not None
            retired.append(leaver)
        return PopulationDelta(spawned=spawned, retired=retired)

    def __len__(self) -> int:
        return len(self.active)


class PopulationDelta:
    """Users added/removed by one :meth:`UserPopulation.resize_to` call."""

    __slots__ = ("spawned", "retired")

    def __init__(
        self, spawned: List[SyntheticUser], retired: List[SyntheticUser]
    ) -> None:
        self.spawned = spawned
        self.retired = retired
