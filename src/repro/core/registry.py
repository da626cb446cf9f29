"""Typed name -> factory registries.

Router scenarios (:data:`~repro.core.router.ROUTER_SCENARIOS`) and
drain-window policies (:data:`~repro.provisioning.ttl.TTL_POLICIES`) are
picked by name — from the CLI, from cluster and experiment configs.  One
:class:`Registry` per component kind gives every caller the same
normalisation rule (case-insensitive, stripped) and the same unknown-name
error listing the valid names; CLI ``choices`` derive from
:attr:`Registry.names`.  The instances live next to the classes they
construct.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """A name -> factory map with uniform lookup errors.

    Args:
        kind: human-readable component kind ("scenario", "ttl policy");
            appears in every unknown-name error.

    Names are normalised case-insensitively (``"Proteus"`` and
    ``"proteus"`` select the same factory) and registration order is
    preserved — :attr:`names` lists factories in the order they were
    registered, which is the order CLI choices and error messages show.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable[..., T]] = {}

    def register(self, name: str, factory: Callable[..., T]) -> None:
        """Register *factory* under *name*."""
        key = name.strip().lower()
        if key in self._factories:
            raise ConfigurationError(
                f"duplicate {self.kind} registration: {key!r}"
            )
        self._factories[key] = factory

    def check(self, name: object) -> str:
        """Validate *name*; returns the normalised form or raises.

        Anything that is not a registered name — a non-string included
        (``null`` in a JSON config) — gets the one unknown-name error.
        """
        key = name.strip().lower() if isinstance(name, str) else None
        if key not in self._factories:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r} "
                f"(expected one of {', '.join(self.names)})"
            )
        return key

    def create(self, name: str, *args, **kwargs) -> T:
        """Instantiate the component registered under *name*."""
        return self._factories[self.check(name)](*args, **kwargs)

    @property
    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order (CLI/choices order)."""
        return tuple(self._factories)
