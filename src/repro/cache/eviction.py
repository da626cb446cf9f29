"""Eviction policies.

The paper explicitly makes *no* assumption about the eviction strategy
("LRU, fixed expiration duration, etc." — Section II); the digest only has
to stay consistent with the store's contents.  The policy therefore sits
behind an interface: LRU is what memcached and every figure use, and the
no-eviction policy is the fake tests substitute to make overflow visible.
A policy tracks key order metadata only; the store owns the items and calls
back on link/access/unlink.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.errors import CapacityError


class EvictionPolicy(ABC):
    """Chooses which key to evict when the store is full."""

    @abstractmethod
    def on_link(self, key: str) -> None:
        """A new key entered the store."""

    @abstractmethod
    def on_access(self, key: str) -> None:
        """An existing key was read or overwritten."""

    @abstractmethod
    def on_unlink(self, key: str) -> None:
        """A key left the store (delete, expiry, or eviction)."""

    @abstractmethod
    def victim(self) -> str:
        """Key to evict next.

        Raises:
            CapacityError: the policy tracks no keys (nothing to evict) or
                refuses to evict.
        """

    def reset(self) -> None:
        """Forget all keys (server flush / power cycle)."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least-recently-used — memcached's default, used for Fig. 6."""

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()
        # A link and an access are the dict's own bound methods: no frame
        # per set or get (a key is linked only while absent: appended).
        self.on_link = self._order.setdefault
        self.on_access = self._order.move_to_end

    def on_link(self, key: str) -> None:  # shadowed per instance, above
        self._order[key] = None

    def on_access(self, key: str) -> None:  # shadowed per instance, above
        self._order.move_to_end(key)

    def on_unlink(self, key: str) -> None:
        self._order.pop(key, None)

    def victim(self) -> str:
        if not self._order:
            raise CapacityError("LRU policy has no keys to evict")
        return next(iter(self._order))

    def reset(self) -> None:
        self._order.clear()


class NoEvictionPolicy(EvictionPolicy):
    """Never evict: inserting past capacity raises :class:`CapacityError`.

    Useful in tests and for modelling stores where overflow must be visible.
    """

    def on_link(self, key: str) -> None:
        pass

    def on_access(self, key: str) -> None:
        pass

    def on_unlink(self, key: str) -> None:
        pass

    def victim(self) -> str:
        raise CapacityError("eviction disabled")

    def reset(self) -> None:
        pass
