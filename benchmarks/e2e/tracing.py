"""Timing shims around each layer's public entry points, and the fold from
spans to per-layer metrics.

The shims are installed from here — nothing inside ``src/`` knows it is
being traced.  An entry point is named ``module:attribute.path``; one that
no longer resolves turns its whole layer to ``None`` with a warning, never
a crash, so a later refactor cannot break the benchmark.

Self time follows the interpreter's own call stack: entering a shimmed
call (or resuming a shimmed coroutine or generator for one step) pushes a
frame, leaving pops it, and the elapsed time is taken out of the frame
below.  A layer's busy time is the sum of its spans' self times, so time
spent awaiting — the event loop, the kernel, the other side of the wire —
belongs to no layer and shows up as ``loop.unattributed_frac``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> entry points (``module:attribute.path``), in the order of the
#: table in README.md
LAYERS: Dict[str, Tuple[str, ...]] = {
    "bloom.hashing": (
        "repro.bloom.hashing:KeyHashes.__init__",
        "repro.bloom.hashing:ring_positions_many",
        "repro.bloom.hashing:digest_bases_many",
    ),
    "core.router": (
        "repro.core.router:Router.route_many",
        "repro.core.router:Router.route_hashed",
    ),
    "core.retrieval": ("repro.core.retrieval:RetrievalEngine.retrieve_many",),
    "core.transition": (
        "repro.core.transition:Transition.digest_hit_many",
        "repro.core.transition:Transition.digest_hit",
        "repro.core.transition:TransitionManager.routing_counts",
    ),
    "resilience": (
        "repro.resilience.breaker:CircuitBreaker.allow",
        "repro.resilience.breaker:CircuitBreaker.record_success",
        "repro.resilience.policy:ResiliencePolicy.new_deadline",
        "repro.resilience.deadline:Deadline.expired",
        "repro.resilience.retry:RetryPolicy.delays",
    ),
    "net.pool": (
        "repro.net.pool:ConnectionPool.acquire",
        "repro.net.pool:ConnectionPool.release",
    ),
    "net.client": (
        "repro.net.client:MemcachedClient.get_multi",
        "repro.net.client:MemcachedClient.set_multi",
        "repro.net.client:MemcachedClient.get",
        "repro.net.client:MemcachedClient.set",
    ),
    "net.parser.reply": (
        "repro.net.parser:ReplyParser.expect",
        "repro.net.parser:ReplyParser.feed",
    ),
    "net.parser.command": ("repro.net.parser:CommandParser.feed",),
    "net.protocol": (
        "repro.net.protocol:parse_command_line",
        "repro.net.protocol:value_response",
    ),
    "cache.store": (
        "repro.cache.store:KeyValueStore.get",
        "repro.cache.store:KeyValueStore.set",
        "repro.cache.store:KeyValueStore.delete",
    ),
    "bloom.counting": (
        "repro.bloom.counting:CountingBloomFilter.add",
        "repro.bloom.counting:CountingBloomFilter.remove",
        "repro.bloom.counting:CountingBloomFilter.snapshot",
    ),
    "net.webtier": (
        "repro.net.webtier:AsyncProteusFrontend.fetch_many",
        "repro.net.webtier:AsyncProteusFrontend.scale_to",
    ),
}
#: the benchmark's own database callable is a layer too (see ``wrap``)
DATABASE = "database"
#: spans of these entry points are roots: a page or a resize
ROOTS = ("fetch_many", "scale_to")


class Span:
    """One call of one entry point."""

    __slots__ = ("id", "layer", "name", "start", "end", "busy", "parent",
                 "page", "note", "steps")

    def __init__(self, id_, layer, name, start, parent, page):
        self.id = id_
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0          #: self time: running, minus shimmed callees
        self.parent = parent     #: id of the span that caused this one
        self.page = page         #: id of the root span it belongs to
        self.note = 0            #: entry-point specific count (bytes, ...)
        self.steps = 0           #: values a generator entry point yielded

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans in memory while a root span (a page fetch or a
    resize) is open; everything between roots is the bench's own doing and
    is not recorded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.missing: Dict[str, str] = {}   #: layer -> first unresolved name
        self._root: Optional[Span] = None
        self._stack: List[list] = []        # [span, resumed_at, child_time]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording

    def _open(self, layer: str, name: str, root: bool) -> Optional[Span]:
        if self._root is None and not root:
            return None
        now = self.clock()
        if self._stack:
            parent = self._stack[-1][0].id
        else:
            parent = None if self._root is None else self._root.id
        span = Span(len(self.spans), layer, name, now, parent, None)
        if self._root is None:
            self._root = span
        span.page = self._root.id
        self.spans.append(span)
        return span

    def _resume(self, span: Span) -> None:
        self._stack.append([span, self.clock(), 0.0])

    def _suspend(self) -> None:
        span, resumed_at, child_time = self._stack.pop()
        now = self.clock()
        elapsed = now - resumed_at
        span.busy += elapsed - child_time
        span.end = now
        if self._stack:
            self._stack[-1][2] += elapsed

    def _close(self, span: Span) -> None:
        if span is self._root:
            self._root = None

    # --------------------------------------------------------------- wrapping

    def wrap(self, layer: str, name: str, function: Callable,
             note: Optional[Callable] = None) -> Callable:
        """A timed stand-in for *function* (sync, generator or coroutine
        function; the kind is read off the function itself).  *note* maps
        the call's arguments to a number stored on the span."""
        tracer = self
        root = name in ROOTS

        if inspect.iscoroutinefunction(function):
            def timed(*args, **kwargs):
                return _TimedAwaitable(
                    tracer, layer, name, root, function(*args, **kwargs)
                )
        elif inspect.isgeneratorfunction(function):
            def timed(*args, **kwargs):
                return _TimedGenerator(
                    tracer, layer, name, function(*args, **kwargs)
                )
        else:
            def timed(*args, **kwargs):
                span = tracer._open(layer, name, root)
                if span is None:
                    return function(*args, **kwargs)
                if note is not None:
                    span.note = note(*args, **kwargs)
                tracer._resume(span)
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer._suspend()
                    tracer._close(span)

        timed.__wrapped__ = function
        timed.__name__ = getattr(function, "__name__", name)
        return timed

    def install(self) -> None:
        """Shim every entry point in :data:`LAYERS`."""
        for layer, names in LAYERS.items():
            resolved = []
            for name in names:
                try:
                    resolved.append(_resolve(name))
                except (ImportError, AttributeError) as error:
                    self.missing[layer] = name
                    warnings.warn(
                        f"layer {layer}: entry point {name} no longer "
                        f"resolves ({error}); reporting null"
                    )
                    break
            else:
                for owner, attribute, function in resolved:
                    for target, original in _holders(owner, attribute, function):
                        self._patches.append((target, attribute, original))
                        setattr(target, attribute, self.wrap(
                            layer, attribute, original, NOTES.get(attribute)
                        ))

    def uninstall(self) -> None:
        while self._patches:
            target, attribute, function = self._patches.pop()
            setattr(target, attribute, function)

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


class _TimedAwaitable:
    """Drives a coroutine one step at a time, timing each step as busy
    time of its span; the waits between steps belong to nobody."""

    __slots__ = ("tracer", "layer", "name", "root", "coro")

    def __init__(self, tracer, layer, name, root, coro):
        self.tracer, self.layer, self.name = tracer, layer, name
        self.root, self.coro = root, coro

    def __await__(self):
        tracer = self.tracer
        span = tracer._open(self.layer, self.name, self.root)
        if span is None:
            return (yield from self.coro.__await__())
        steps = self.coro.__await__()
        value, error = None, None
        try:
            while True:
                tracer._resume(span)
                try:
                    if error is None:
                        waiting_on = steps.send(value)
                    else:
                        waiting_on = steps.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._suspend()
                value, error = None, None
                try:
                    value = yield waiting_on
                except BaseException as thrown:  # forwarded to the coroutine
                    error = thrown
        finally:
            tracer._close(span)


class _TimedGenerator:
    """A generator whose every step is timed as busy time of one span;
    ``span.steps`` counts its yields and ``span.note`` what they carried
    (the items of a yielded tuple)."""

    def __init__(self, tracer, layer, name, generator):
        self._tracer = tracer
        self._generator = generator
        self._span = tracer._open(layer, name, False)

    def _step(self, step, *args):
        span = self._span
        if span is None:
            return step(*args)
        self._tracer._resume(span)
        try:
            value = step(*args)
        finally:
            self._tracer._suspend()
        span.steps += 1
        span.note += len(value) if isinstance(value, tuple) else 1
        return value

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._generator.__next__)

    def send(self, value):
        return self._step(self._generator.send, value)

    def throw(self, *args):
        return self._step(self._generator.throw, *args)

    def close(self):
        return self._generator.close()


def _size_of_second(*args, **kwargs) -> int:
    return len(args[1])


#: what to note on a span, by entry-point attribute name: the parsers'
#: ``feed`` notes the bytes it was handed (wire bytes, measured where the
#: work happens)
NOTES: Dict[str, Callable] = {"feed": _size_of_second}


def _resolve(name: str) -> Tuple[Any, str, Callable]:
    """``module:a.b`` -> (object holding the attribute, attribute, value)."""
    module_name, path = name.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, getattr(owner, attribute)


def _holders(
    owner: Any, attribute: str, function: Callable
) -> List[Tuple[Any, Callable]]:
    """Every ``(object, its own function)`` whose *attribute* must be
    swapped for the shim to be seen: the owner, a class's subclasses that
    override the method (they are what actually runs), and modules that
    imported a function by name."""
    if inspect.isclass(owner):
        holders = [(owner, function)]
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attribute in vars(cls):
                holders.append((cls, vars(cls)[attribute]))
        return holders
    root = owner.__name__.split(".")[0]
    return [
        (module, function)
        for module_name, module in list(sys.modules.items())
        if module is not None
        and module_name.split(".")[0] == root
        and vars(module).get(attribute) is function
    ]


# ----------------------------------------------------------------- the fold


def per_layer(
    tracer: Tracer, pages: int, extras: Dict[str, float]
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced run of *pages* page fetches.

    ``<layer>.calls_per_page`` and ``<layer>.busy_frac`` (share of the
    roots' wall time) for every layer, the named extras derived from
    spans, and whatever the bench counted itself (*extras*).
    """
    spans = tracer.spans
    roots = [s for s in spans if s.id == s.page]
    wall = sum(s.end - s.start for s in roots)
    out: Dict[str, Optional[float]] = {}
    busy_total = 0.0
    for layer in list(LAYERS) + [DATABASE]:
        if layer in tracer.missing:
            out[f"{layer}.calls_per_page"] = None
            out[f"{layer}.busy_frac"] = None
            continue
        mine = [s for s in spans if s.layer == layer]
        busy = sum(s.busy for s in mine)
        busy_total += busy
        out[f"{layer}.calls_per_page"] = len(mine) / pages
        out[f"{layer}.busy_frac"] = busy / wall

    def named(layer: str, *names: str) -> List[Span]:
        return [s for s in spans if s.layer == layer and s.name in names]

    def maybe(layer: str, value: float) -> Optional[float]:
        return None if layer in tracer.missing else value

    engine = named("core.retrieval", "retrieve_many")
    out["core.retrieval.rounds_per_page"] = maybe(
        "core.retrieval", sum(s.steps for s in engine) / pages
    )
    out["core.retrieval.commands_per_page"] = maybe(
        "core.retrieval", sum(s.note for s in engine) / pages
    )
    out["core.transition.digest_consults_per_page"] = maybe(
        "core.transition",
        len(named("core.transition", "digest_hit_many", "digest_hit")) / pages,
    )
    rpcs = [s for s in spans if s.layer == "net.client"]
    out["net.client.rpcs_per_page"] = maybe("net.client", len(rpcs) / pages)
    out["net.client.rpc_wall_frac"] = maybe(
        "net.client", sum(s.end - s.start for s in rpcs) / wall
    )
    out["net.client.bytes_out_per_page"] = maybe(
        "net.parser.command",
        sum(s.note for s in named("net.parser.command", "feed")) / pages,
    )
    out["net.parser.reply.bytes_in_per_page"] = maybe(
        "net.parser.reply",
        sum(s.note for s in named("net.parser.reply", "feed")) / pages,
    )
    out["cache.store.gets_per_page"] = maybe(
        "cache.store", len(named("cache.store", "get")) / pages
    )
    out["cache.store.sets_per_page"] = maybe(
        "cache.store", len(named("cache.store", "set")) / pages
    )
    out["database.reads_per_page"] = out[f"{DATABASE}.calls_per_page"]
    for name, value in extras.items():
        out[name] = value
    out["loop.unattributed_frac"] = 1.0 - busy_total / wall
    return out
