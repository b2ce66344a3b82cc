"""Pluggable start-partition routing for the serving engine.

A router decides **which partitions a query is dispatched to, and in what
order**, given the label of the query plan's root slot.  It never changes
*what* is answered — on full enumeration every router yields the identical
embedding set and hop count (partitions without root candidates contribute
nothing) — it changes how much dispatch work the engine does: the naive
broadcast baseline contacts every partition, the smart routers skip the
ones that cannot start the query ("On Smart Query Routing", PAPERS.md).

The registry mirrors :mod:`repro.partitioning.registry`: every call site
that turns a router *name* into an instance goes through :func:`create_router`,
so a new policy plugs in with one :func:`register_router` call and is
immediately selectable from the CLI, the traffic driver and the serving
benchmark::

    from repro.serving.router import register_router

    @register_router("my-policy")
    def _build():
        return MyRouter()
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Tuple

from repro.serving.stores import RoutingIndex

BUILTIN_ROUTERS: Tuple[str, ...] = ("broadcast", "candidate-count", "label-selectivity")
"""The built-in policies, naive baseline first."""


class Router(abc.ABC):
    """Start-partition selection policy."""

    name: str = "abstract"

    @abc.abstractmethod
    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        """The partitions to dispatch a root scan to, in contact order."""


class BroadcastRouter(Router):
    """The naive baseline: contact every partition, candidates or not."""

    name = "broadcast"

    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        return list(range(index.k))


class CandidateCountRouter(Router):
    """Contact only partitions holding root candidates, most first.

    The count of label-matching vertices per partition is the smart-routing
    signal: partitions with more candidates amortise the dispatch better,
    and empty partitions are never contacted at all.
    """

    name = "candidate-count"

    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        counts = index.candidate_counts(root_label_id)
        ranked = [(count, p) for p, count in enumerate(counts) if count > 0]
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return [p for _count, p in ranked]


class LabelSelectivityRouter(Router):
    """Contact candidate-holding partitions by label *density*, densest first.

    Density — candidates over partition size — favours partitions where the
    root label is locally selective (a large share of the stored vertices
    can start the query), a better proxy for useful work per contact than
    the raw count when partition sizes are skewed.
    """

    name = "label-selectivity"

    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        ranked = []
        for p, store in enumerate(index.stores):
            count = store.candidate_count(root_label_id)
            if count > 0:
                ranked.append((-count / max(1, store.num_members), p))
        ranked.sort()
        return [p for _density, p in ranked]


RouterFactory = Callable[[], Router]

_REGISTRY: Dict[str, RouterFactory] = {}
_builtins_loaded = False


def register_router(name: str, factory: Optional[RouterFactory] = None):
    """Register ``factory`` under ``name``; usable as a decorator.

    Re-registering a name replaces the old factory; registration order is
    preserved by :func:`available_routers`.
    """
    if not name or not isinstance(name, str):
        raise ValueError("router name must be a non-empty string")
    _ensure_builtins()  # builtins always precede user registrations

    def _register(fn: RouterFactory) -> RouterFactory:
        _REGISTRY[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_router(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)


def available_routers() -> Tuple[str, ...]:
    """All registered router names, builtins first."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def create_router(name: str) -> Router:
    """Instantiate the router registered under ``name``.

    Unknown names raise ``ValueError`` listing every registered name,
    mirroring the partitioner registry's misuse error.
    """
    _ensure_builtins()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"unknown router {name!r}; expected one of {available_routers()}")
    return factory()


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    _REGISTRY["broadcast"] = BroadcastRouter
    _REGISTRY["candidate-count"] = CandidateCountRouter
    _REGISTRY["label-selectivity"] = LabelSelectivityRouter
