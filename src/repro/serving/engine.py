"""The serving front end and the in-process serving engine.

Serving has one design with two deployments.  A **front end**
(:class:`ServingFrontEnd`) makes every decision: it feeds the optional
streaming partitioner, grows the graph, admits placed edges into the
:class:`~repro.serving.stores.RoutingIndex`, compiles query plans and
routes root scans (:mod:`repro.serving.router`).  A **storage tier** of
:class:`~repro.serving.stores.ShardStores` holds adjacency and the result
cache, and executes (:mod:`repro.serving.execution`).
:class:`ServingEngine` runs the storage tier in-process as one shard
owning every partition; :class:`repro.runtime.live.LiveCluster` runs N
shards in server processes and turns each cross-shard hop into a message.

Every embedding is expanded partition-locally — each time expansion
follows an edge whose endpoints live in different partitions the engine
charges one **hop**.  Hops are the live counterpart of the offline
executor's inter-partition traversals: the engine compiles the *same*
search plan (:func:`repro.query.isomorphism.search_plan`) over the same
graph, so on full enumeration the hop total of a query is
**bit-identical** to :class:`~repro.query.executor.WorkloadExecutor`'s
``cut_traversals`` — the correctness anchor tested in
``tests/test_serving_equivalence.py``.  (Hops are charged per *completed*
embedding, exactly as the executor counts; ``border_expansions``
additionally counts speculative search steps that crossed the border and
found no embedding — the serving-only cost an offline score never sees.)

The engine is online: :meth:`ServingFrontEnd.ingest` feeds a batch to the
attached :class:`~repro.partitioning.base.StreamingPartitioner` (via
``ingest_batch``), admits the newly placed edges, applies them to the
store as the same vertex and edge rows a live shard receives, and
invalidates exactly the cached ``(query, root)`` results the new edges can
have changed (:func:`repro.serving.cache.invalidate_radius`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.graph.interning import LabelInterner
from repro.graph.labelled_graph import LabelledGraph, Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState
from repro.query.isomorphism import search_plan
from repro.query.workload import Workload
from repro.serving.cache import ResultCache, invalidate_radius
from repro.serving.execution import CompiledPlan, ShardView, enumerate_root, splice_segments
from repro.serving.router import Router, create_router
from repro.serving.stores import RoutingIndex, ShardStores


@dataclass(frozen=True)
class RootResult:
    """Everything one ``(query, root)`` request returns — the cached unit."""

    query: str
    root: int
    #: Complete embeddings, each a tuple of vertex ids in plan-slot order.
    embeddings: Tuple[Tuple[int, ...], ...]
    #: Border crossings inside the returned embeddings (the ipt share).
    hops: int
    #: Search steps that followed a border edge while generating candidates,
    #: including ones that never completed an embedding.
    border_expansions: int

    @property
    def num_embeddings(self) -> int:
        return len(self.embeddings)


@dataclass
class QueryServeReport:
    """Serving outcome for one workload query (all roots, full enumeration)."""

    name: str
    frequency: float
    embeddings: int
    traversals: int
    hops: int
    border_expansions: int
    partitions_contacted: int
    roots_scanned: int
    cache_hits: int
    cache_misses: int

    @property
    def weighted_hops(self) -> float:
        """Frequency-weighted hops — the serving twin of ``weighted_ipt``."""
        return self.frequency * self.hops

    @property
    def hops_per_embedding(self) -> float:
        return self.hops / self.embeddings if self.embeddings else 0.0


@dataclass
class ServeReport:
    """Serving outcome for a whole workload against one partitioning."""

    system: str
    queries: List[QueryServeReport] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def weighted_hops(self) -> float:
        """Must equal ``ExecutionReport.weighted_ipt`` on full enumeration."""
        return sum(q.weighted_hops for q in self.queries)

    @property
    def total_hops(self) -> int:
        return sum(q.hops for q in self.queries)

    @property
    def total_embeddings(self) -> int:
        return sum(q.embeddings for q in self.queries)

    @property
    def total_partitions_contacted(self) -> int:
        return sum(q.partitions_contacted for q in self.queries)




def _reject_continuation(continuation):  # pragma: no cover - invariant guard
    raise RuntimeError(f"local splice hit a continuation: {continuation!r}")


class _CompiledQuery:
    """One workload query lowered onto interner ids: slots, anchors, labels."""

    __slots__ = (
        "name",
        "frequency",
        "pattern",
        "label_ids",
        "anchors",
        "depth",
        "signature",
        "compiled",
    )

    def __init__(
        self,
        entry,
        graph: LabelledGraph,
        labels: LabelInterner,
        label_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.name = entry.pattern.name
        self.frequency = entry.frequency
        self.pattern = entry.pattern
        plan = search_plan(entry.pattern, graph, label_counts)
        slot_of = {pv: i for i, (pv, _anchors) in enumerate(plan)}
        #: Wanted label id per slot, in plan order.
        self.label_ids: List[int] = [labels.intern(entry.pattern.label(pv)) for pv, _a in plan]
        #: Earlier-slot indices each slot must be adjacent to (slot 0: none).
        self.anchors: List[List[int]] = [[slot_of[a] for a in anchors] for _pv, anchors in plan]
        #: The cache-invalidation radius: an embedding rooted at r reaches
        #: any of its vertices through at most |Eq| data edges.
        self.depth = entry.pattern.num_edges
        #: Plan identity — graph growth can shift the rarest-label root
        #: slot, which changes what "root" means for cached entries.
        self.signature = tuple(pv for pv, _a in plan)
        #: The wire-friendly core shared with shard-side execution.
        self.compiled = CompiledPlan(
            self.name, self.label_ids, self.anchors, self.depth, self.signature
        )


class ServingFrontEnd:
    """The front end every serving deployment shares: admit, plan, route.

    It owns the *decisions*: the optional streaming partitioner, the
    growing :class:`~repro.graph.labelled_graph.LabelledGraph`, the
    :class:`~repro.serving.stores.RoutingIndex` admission index
    (``index``), the compiled query plans and the router.  The *data* —
    adjacency and cached results — lives in shard stores that a subclass
    runs: :class:`ServingEngine` holds one in-process store owning every
    partition, :class:`repro.runtime.live.LiveCluster` N server processes.
    A subclass supplies :meth:`_apply_round` (deliver one round of vertex
    and edge rows to its stores) and :meth:`serve_root` (answer one root,
    leaving the cache flag in :attr:`last_cached`).
    """

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        router: Union[Router, str],
        partitioner: Optional[StreamingPartitioner],
    ) -> None:
        if partitioner is not None and partitioner.state is not state:
            raise ValueError(f"partitioner must share the {type(self).__name__}'s PartitionState")
        self.graph = graph
        self.state = state
        self.workload = workload
        self.router = create_router(router) if isinstance(router, str) else router
        self.partitioner = partitioner
        self.index = RoutingIndex.from_state(graph, state)
        # The graph's label histogram, maintained incrementally by ingest:
        # recompiling plans per batch must not rescan every vertex.
        self._label_counts: Dict[str, int] = {}
        for v in graph.vertices():
            label = graph.label(v)
            self._label_counts[label] = self._label_counts.get(label, 0) + 1
        self._queries: Dict[str, _CompiledQuery] = {}
        self._compile_plans()
        #: Cache flag of the most recent :meth:`serve_root` (True hit /
        #: False miss / None when caching is off or nothing was stored).
        self.last_cached: Optional[bool] = None
        # Observability (repro.obs): bound at construction; NULL stubs when
        # disabled.  Hop attribution is keyed (query, root label id,
        # partition) — the per-partition signal ROADMAP item 3's hot-border
        # replication needs — and joins snapshots via a collector the
        # subclass registers under its own prefix.
        self._obs_on = obs.enabled()
        self._trace = obs.tracer()
        self._trace_on = self._trace.enabled
        self._hop_attribution: Dict[Tuple[str, int, int], int] = {}

    # ------------------------------------------------------------------
    # Plan compilation
    # ------------------------------------------------------------------
    def _compile_plans(self) -> Tuple[str, ...]:
        """(Re)compile every query plan against the current graph; returns
        the queries whose plan signature changed.

        Label rarity drives the root-slot choice, so graph growth can
        reorder a plan; entries cached under the old root meaning must be
        dropped wholesale — the radius rule cannot cover a re-rooting.
        """
        dropped: List[str] = []
        for entry in self.workload:
            compiled = _CompiledQuery(entry, self.graph, self.index.labels, self._label_counts)
            previous = self._queries.get(compiled.name)
            if previous is not None and previous.signature != compiled.signature:
                dropped.append(compiled.name)
            self._queries[compiled.name] = compiled
        return tuple(dropped)

    def query_names(self) -> List[str]:
        return list(self._queries)

    def root_label_id(self, query_name: str) -> int:
        return self._plan(query_name).label_ids[0]

    def root_candidates(self, query_name: str) -> List[int]:
        """All stored root-candidate ids for a query, across partitions."""
        return self.index.all_candidates(self.root_label_id(query_name))

    def _plan(self, query_name: str) -> _CompiledQuery:
        plan = self._queries.get(query_name)
        if plan is None:
            raise KeyError(f"no query named {query_name!r}; workload has {self.query_names()}")
        return plan

    # ------------------------------------------------------------------
    # Online ingest (composes with StreamingPartitioner.ingest_batch)
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[EdgeEvent]) -> int:
        """Stream a batch: partition it, grow the graph and the index, and
        deliver the visible delta to the stores as one round.

        Returns the number of edges that became *visible* (both endpoints
        placed) this round; Loom-deferred edges park in the index's pending
        buffer until a later round or :meth:`finalize` places them.
        """
        if self.partitioner is None:
            raise ValueError(f"{type(self).__name__} has no partitioner attached; cannot ingest")
        batch = list(events)
        self.partitioner.ingest_batch(batch)
        label_counts = self._label_counts
        for event in batch:
            for v, label in ((event.u, event.u_label), (event.v, event.v_label)):
                if not self.graph.has_vertex(v):
                    label_counts[label] = label_counts.get(label, 0) + 1
            self.graph.add_edge(event.u, event.v, event.u_label, event.v_label)
        for event in batch:
            self.index.ingest_edge(event)
        return self._publish()

    def finalize(self) -> int:
        """Drain the partitioner (Loom's window) and flush pending edges."""
        if self.partitioner is not None:
            self.partitioner.finalize()
        return self._publish()

    def _publish(self) -> int:
        """Admit what the pending buffer can place, then ship the round's
        delta to the stores; returns the number of newly visible edges."""
        self.index.flush_pending()
        vertex_rows, new_edges = self.index.take_delta()
        # Plans first: label counts moved, so root slots may have too.
        dropped = self._compile_plans() if new_edges else ()
        self._apply_round(vertex_rows, new_edges, dropped)
        return len(new_edges)

    def _apply_round(
        self,
        vertex_rows: List[Tuple[int, int, int]],
        edge_pairs: List[Tuple[int, int]],
        drop_queries: Tuple[str, ...],
    ) -> None:
        """Deliver one round to the stores: new vertex rows, newly visible
        edges, and the queries whose cached entries a re-plan voided."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Whole-workload execution (the executor-equivalent pass)
    # ------------------------------------------------------------------
    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Answer one ``(query, root vertex id)`` request, leaving its cache
        flag in :attr:`last_cached`."""
        raise NotImplementedError

    def execute_query(self, query_name: str) -> QueryServeReport:
        """Full enumeration of one query: route, scan roots, serve each."""
        plan = self._plan(query_name)
        root_label = plan.label_ids[0]
        partitions = self.router.route(self.index, root_label)
        embeddings = traversals = hops = border = roots = hits = misses = 0
        num_edges = plan.pattern.num_edges
        for partition in partitions:
            for root in self.index.candidates(partition, root_label):
                result = self.serve_root(query_name, root)
                cached = self.last_cached
                if cached is True:
                    hits += 1
                elif cached is False:
                    misses += 1
                roots += 1
                embeddings += result.num_embeddings
                traversals += result.num_embeddings * num_edges
                hops += result.hops
                border += result.border_expansions
        return QueryServeReport(
            name=plan.name,
            frequency=plan.frequency,
            embeddings=embeddings,
            traversals=traversals,
            hops=hops,
            border_expansions=border,
            partitions_contacted=len(partitions),
            roots_scanned=roots,
            cache_hits=hits,
            cache_misses=misses,
        )

    def execute_workload(self, system: str = "") -> ServeReport:
        """Serve every workload query in full — the executor-equivalent pass."""
        start = time.perf_counter()
        report = ServeReport(system=system)
        for name in self._queries:
            report.queries.append(self.execute_query(name))
        report.seconds = time.perf_counter() - start
        return report

    def _hop_metrics(self) -> Dict[str, int]:
        """Hop attribution as dotted names (``<query>.l<label>.p<part>``).

        Keys interpolate query names (workload strings) and ints — value
        forms, not object reprs — and insertion follows sorted key order.
        """
        out: Dict[str, int] = {}
        for key in sorted(self._hop_attribution):
            query, label_id, partition = key
            name = f"{query}.l{label_id}.p{partition}"
            out[name] = self._hop_attribution[key]
        return out


class ServingEngine(ServingFrontEnd):
    """Serve a :class:`Workload` in-process: the front end over one shard
    store that owns every partition.

    Parameters
    ----------
    graph:
        The live data graph.  For static serving this is the fully
        streamed graph; with ``partitioner`` attached the engine grows it
        edge by edge through :meth:`ingest`.
    state:
        The (shared-interner) partition assignment to serve through.
    workload:
        The queries and their frequencies.
    router:
        A :class:`~repro.serving.router.Router` instance or a registered
        router name (default ``"candidate-count"``).
    cache:
        A :class:`~repro.serving.cache.ResultCache`, ``True`` for a default
        unbounded one, or ``None``/``False`` to serve uncached.
    partitioner:
        Optional streaming partitioner fed by :meth:`ingest`; it must share
        ``state`` (and therefore the interner) with the engine.
    """

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        router: Union[Router, str] = "candidate-count",
        cache: Union[ResultCache, bool, None] = None,
        partitioner: Optional[StreamingPartitioner] = None,
    ) -> None:
        super().__init__(graph, state, workload, router, partitioner)
        if cache is True:
            self.cache: Optional[ResultCache] = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache  # a caller-configured ResultCache (even an empty one)
        # The storage tier: the live cluster's shard store, one shard of one.
        self.stores = ShardStores(0, 1, state.k)
        self.view = ShardView(self.stores)
        # Bootstrap round: nothing was served from this store yet, so no
        # invalidation wave.
        vertex_rows, edge_pairs = self.index.take_delta()
        self.stores.apply_rows(vertex_rows, self.index.edge_rows(edge_pairs))
        # The per-request path stays lean on purpose: one window record,
        # one attribution add, one (guarded) trace event.  Request totals
        # and latency percentiles come from the windowed rollup; cache
        # hit/miss counts already live on the cache — a collector reads
        # them at snapshot time instead of double-counting per request.
        self._obs_window = obs.window("serving")
        obs.register_collector("serve.hops", self._hop_metrics)
        if self.cache is not None:
            obs.register_collector("serve.cache", self.cache.stats)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Serve one ``(query, root vertex id)`` request, through the cache."""
        plan = self._plan(query_name)
        obs_on = self._obs_on
        t0 = time.perf_counter() if obs_on else 0.0
        hit: Optional[bool] = None
        result: Optional[RootResult] = None
        if self.cache is not None:
            result = self.cache.get((query_name, root))
            hit = result is not None  # a hit answers locally: no partitions touched
        if result is None:
            result = self._enumerate_root(plan, root)
            if self.cache is not None:
                self.cache.put((query_name, root), result)
        self.last_cached = hit
        if obs_on:
            self._record_serve(plan, root, result, hit is True, t0)
        return result

    def _record_serve(
        self, plan: _CompiledQuery, root: int, result: RootResult, hit: bool, t0: float
    ) -> None:
        """Out-of-band per-request telemetry (obs enabled only): windowed
        rollup, hop attribution, one trace event when tracing is on.  Every
        trace field is deterministic; the clock feeds only latency metrics."""
        latency_us = int((time.perf_counter() - t0) * 1e6)
        vec = self.state.assignment_vector
        partition = vec[root] if root < len(vec) else -1
        key = (plan.name, plan.label_ids[0], partition)
        self._hop_attribution[key] = self._hop_attribution.get(key, 0) + result.hops
        self._obs_window.record(plan.name, result.hops, latency_us)
        if self._trace_on:
            self._trace.event(
                "serve.done",
                query=plan.name,
                root=root,
                partition=partition,
                hops=result.hops,
                embeddings=result.num_embeddings,
                cached=hit,
            )

    def serve_vertex(self, query_name: str, root_vertex: Vertex) -> RootResult:
        """Vertex-keyed :meth:`serve_root` (the public request boundary)."""
        vid = self.state.interner.id_of(root_vertex)
        if vid is None:
            raise KeyError(f"unknown root vertex {root_vertex!r}")
        return self.serve_root(query_name, vid)

    def _enumerate_root(self, plan: _CompiledQuery, root: int) -> RootResult:
        """Enumerate every embedding whose plan-root slot maps to ``root``.

        The expansion mirrors ``find_embeddings`` exactly — same plan, same
        injectivity/label/anchor checks — but runs through the shard step
        executor (:mod:`repro.serving.execution`): candidates come from the
        store's sorted adjacency, and each anchor edge whose endpoints live
        in different partitions is a hop.  The store owns every partition,
        so the step never emits a continuation — the code path a shard
        server runs, minus the wire.
        """
        if self.stores.label_of.get(root) != plan.label_ids[0]:
            return RootResult(plan.name, root, (), 0, 0)
        segments = enumerate_root(
            self.view, plan.compiled, root, self.state.assignment_vector[root]
        )
        embeddings, hops_total, border_expansions = splice_segments(segments, _reject_continuation)
        return RootResult(plan.name, root, tuple(embeddings), hops_total, border_expansions)

    # ------------------------------------------------------------------
    # Online ingest
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[EdgeEvent]) -> int:
        batch = list(events)
        visible = super().ingest(batch)
        if self._trace_on:
            self._trace.event("serve.ingest", n=len(batch), visible=visible)
        return visible

    def _apply_round(
        self,
        vertex_rows: List[Tuple[int, int, int]],
        edge_pairs: List[Tuple[int, int]],
        drop_queries: Tuple[str, ...],
    ) -> None:
        """Apply the round to the store, then invalidate: re-planned queries
        wholesale, everything else by the radius rule around the new edges."""
        endpoints = self.stores.apply_rows(vertex_rows, self.index.edge_rows(edge_pairs))
        if self.cache is None:
            return
        for name in drop_queries:
            self.cache.drop_query(name)
        depths = {name: plan.depth for name, plan in self._queries.items()}
        invalidate_radius(self.cache, self.stores, [(vid, 0) for vid in endpoints], depths, {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServingEngine k={self.state.k} queries={len(self._queries)} "
            f"router={self.router.name!r} cache={'on' if self.cache is not None else 'off'}>"
        )
