"""The serving data layer: the front end's admission index and the shard store.

Serving is split the way a routed cluster is: a front end that admits
edges and routes requests, and a storage tier that holds adjacency and
executes.  Both halves live here, keyed by the dense ids of
``state.interner`` (vertex objects and label strings survive only at the
boundary):

* :class:`RoutingIndex` is the front end's adjacency-free index: vertex →
  label id, per-partition label indexes (the routers' signal and the
  root-candidate scans), the visible-edge key set and the pending buffer.
  It **admits** a streamed edge the moment both endpoints have been
  *assigned* by the partitioner; edges whose endpoint is still unplaced
  (Loom holds vertices in its sliding window before clustering them) park
  in the pending buffer and surface via :meth:`RoutingIndex.flush_pending`
  once the assignment lands — so the visible subgraph only ever contains
  fully-placed edges, exactly the set the offline executor can score.
  Admission produces the vertex and edge *rows* the storage tier applies.
* :class:`ShardStores` is one shard's slice of the storage tier: full
  sorted adjacency of the members of the partitions it owns, plus ghost
  metadata for their off-shard neighbours, built entirely from those
  rows.  The live cluster runs N of them in server processes; the
  in-process engine runs the same class as one shard owning every
  partition.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.interning import LabelInterner, pack_edge
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import EdgeEvent
from repro.partitioning.state import UNASSIGNED, PartitionState


class _PartitionIndex:
    """One partition's *membership* view: labels and counts, no adjacency.

    Enough surface (``candidate_count`` / ``candidates`` / ``num_members``)
    for every :mod:`repro.serving.router` policy and for root-candidate
    scans; adjacency lives only in the shard store owning the partition.
    """

    __slots__ = ("partition", "_by_label", "num_members")

    def __init__(self, partition: int) -> None:
        self.partition = partition
        self._by_label: Dict[int, List[int]] = {}
        self.num_members = 0

    def add_member(self, label_id: int, vid: int, sort: bool = True) -> None:
        if sort:
            insort(self._by_label.setdefault(label_id, []), vid)
        else:
            self._by_label.setdefault(label_id, []).append(vid)
        self.num_members += 1

    def candidates(self, label_id: int) -> List[int]:
        return self._by_label.get(label_id, [])

    def candidate_count(self, label_id: int) -> int:
        return len(self._by_label.get(label_id, ()))

    def sort_indexes(self) -> None:
        for values in self._by_label.values():
            values.sort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_PartitionIndex p={self.partition} members={self.num_members}>"


class RoutingIndex:
    """The serving front end's admission and routing index.

    Holds exactly what routing and request admission need — vertex → label
    id, per-partition label indexes (``stores``), the visible-edge key set
    (dedup) and the pending buffer — while the adjacency itself lives in
    the :class:`ShardStores`.  Routers read ``k``, ``stores`` and
    ``candidate_counts``; the traffic drivers read ``all_candidates``.

    Admission rule: an edge becomes visible once both endpoints are placed;
    duplicates are dropped.  Every serving deployment admits through this
    one class, so the engine and a live cluster fed the same stream admit
    the identical edge sequence.
    """

    __slots__ = (
        "state",
        "labels",
        "stores",
        "_label_of",
        "_edges",
        "_pending",
        "_new_vertices",
        "_new_edges",
        "_sorted",
        "num_edges",
        "num_border_edges",
    )

    def __init__(self, state: PartitionState, labels: Optional[LabelInterner] = None) -> None:
        self.state = state
        self.labels = labels if labels is not None else LabelInterner()
        self._sorted = True
        self.stores: List[_PartitionIndex] = [_PartitionIndex(p) for p in range(state.k)]
        self._label_of: Dict[int, int] = {}
        self._edges: Set[int] = set()
        self._pending: List[EdgeEvent] = []
        #: The delta admitted since the last :meth:`take_delta`, in admission
        #: order: ``(vid, label_id, partition)`` vertex rows and visible
        #: ``(uid, vid)`` edge pairs — one round for the shard stores.
        self._new_vertices: List[Tuple[int, int, int]] = []
        self._new_edges: List[Tuple[int, int]] = []
        self.num_edges = 0
        self.num_border_edges = 0

    @classmethod
    def from_state(cls, graph: LabelledGraph, state: PartitionState) -> "RoutingIndex":
        """Bulk-build the index for every placed vertex/edge of ``graph``."""
        index = cls(state)
        index._sorted = False
        try:
            for v in graph.vertices():
                vid = state.interner.id_of(v)
                if vid is not None and state.partition_of_id(vid) != UNASSIGNED:
                    index._add_member(vid, graph.label(v))
            for u, v in graph.edges():
                index.ingest_edge(EdgeEvent(u, graph.label(u), v, graph.label(v)))
        finally:
            index._sorted = True
            for store in index.stores:
                store.sort_indexes()
        return index

    def _add_member(self, vid: int, label: str) -> None:
        if vid in self._label_of:
            return
        lid = self.labels.intern(label)
        self._label_of[vid] = lid
        partition = self.state.partition_of_id(vid)
        self.stores[partition].add_member(lid, vid, sort=self._sorted)
        self._new_vertices.append((vid, lid, partition))

    def ingest_edge(self, event: EdgeEvent) -> Optional[Tuple[int, int]]:
        """Admit one streamed edge if both endpoints are placed.

        Returns the visible ``(uid, vid)`` id pair when the edge entered the
        index, ``None`` when it parked in the pending buffer (unknown or
        unassigned endpoint).  Duplicate edges are no-ops returning ``None``.
        """
        id_of = self.state.interner.id_of
        uid, vid = id_of(event.u), id_of(event.v)
        if (
            uid is None
            or vid is None
            or self.state.partition_of_id(uid) == UNASSIGNED
            or self.state.partition_of_id(vid) == UNASSIGNED
        ):
            self._pending.append(event)
            return None
        ekey = pack_edge(uid, vid)
        if ekey in self._edges:
            return None
        self._add_member(uid, event.u_label)
        self._add_member(vid, event.v_label)
        self._edges.add(ekey)
        self.num_edges += 1
        if self.state.partition_of_id(uid) != self.state.partition_of_id(vid):
            self.num_border_edges += 1
        pair = (uid, vid)
        self._new_edges.append(pair)
        return pair

    def flush_pending(self) -> None:
        """Retry every parked edge.

        Call after each ingest round (and after ``finalize``): a Loom
        cluster assignment can retroactively place the endpoints of edges
        that streamed earlier.
        """
        parked, self._pending = self._pending, []
        for event in parked:
            self.ingest_edge(event)

    def take_delta(self) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int]]]:
        """Drain the vertex rows and edge pairs admitted since the last call
        (everything placed, right after :meth:`from_state`)."""
        delta = (self._new_vertices, self._new_edges)
        self._new_vertices, self._new_edges = [], []
        return delta

    def edge_rows(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """The ``(uid, u_label, u_part, vid, v_label, v_part)`` rows a shard
        store applies for visible edges ``pairs``."""
        label_of = self._label_of
        part_of = self.state.partition_of_id
        for u, v in pairs:
            yield (u, label_of[u], part_of(u), v, label_of[v], part_of(v))

    # -- the routing / admission surface -------------------------------
    def label_id_of(self, vid: int) -> int:
        return self._label_of[vid]

    def __contains__(self, vid: int) -> bool:
        return vid in self._label_of

    def candidates(self, partition: int, label_id: int) -> List[int]:
        return self.stores[partition].candidates(label_id)

    def candidate_counts(self, label_id: int) -> List[int]:
        return [store.candidate_count(label_id) for store in self.stores]

    def all_candidates(self, label_id: int) -> List[int]:
        out: List[int] = []
        for store in self.stores:
            out.extend(store.candidates(label_id))
        out.sort()
        return out

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    @property
    def k(self) -> int:
        return self.state.k

    @property
    def num_vertices(self) -> int:
        return len(self._label_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RoutingIndex k={self.k} |V|={self.num_vertices} "
            f"|E|={self.num_edges} pending={self.num_pending}>"
        )


class ShardStores:
    """One shard's slice of the serving data: the partitions whose index
    ``p % num_shards == shard_id``, with full member adjacency plus **ghost
    metadata** (label and partition) for every remote vertex seen on a
    border edge.  A live shard server holds one; the in-process engine
    holds ``ShardStores(0, 1, k)``, which owns every partition.

    Built entirely from the front end's vertex and edge rows — the store
    never touches the interner or the graph.  The invariants the executor
    leans on:

    * a *member*'s adjacency is complete w.r.t. the visible subgraph (the
      driver sends every visible edge incident to an owned partition), so
      ``has_edge_local`` answers definitively whenever either endpoint is
      a member and returns ``None`` only for remote–remote pairs;
    * every vertex the executor can name (a member's neighbour) has label
      and partition recorded — ghost metadata arrived on the edge row that
      made it adjacent;
    * adjacency lists are insort-maintained, so candidate iteration order
      is independent of how rows were split into rounds and across shards.
    """

    __slots__ = (
        "shard_id",
        "num_shards",
        "k",
        "_adj",
        "_label_of",
        "_partition_of",
        "partition_of",
        "num_edges",
        "num_border_edges",
        "num_ghosts",
    )

    def __init__(self, shard_id: int, num_shards: int, k: int) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.k = k
        #: member id → sorted ids of all its visible neighbours.
        self._adj: Dict[int, List[int]] = {}
        #: vid → label id, members *and* ghosts.
        self._label_of: Dict[int, int] = {}
        #: vid → partition, members *and* ghosts.
        self._partition_of: Dict[int, int] = {}
        #: ``partition_of(vid)``: a bound dict lookup, not a method — the
        #: executor calls it once per candidate.
        self.partition_of = self._partition_of.__getitem__
        self.num_edges = 0
        self.num_border_edges = 0
        self.num_ghosts = 0

    def owns_partition(self, partition: int) -> bool:
        return partition % self.num_shards == self.shard_id

    def _register(self, vid: int, label_id: int, partition: int) -> None:
        """Record a vertex's metadata; promote ghost → member if owned."""
        if vid not in self._label_of:
            self._label_of[vid] = label_id
            self._partition_of[vid] = partition
            if self.owns_partition(partition):
                self._adj[vid] = []
            else:
                self.num_ghosts += 1
        elif self.owns_partition(partition) and vid not in self._adj:
            # Announced earlier as a ghost on a border edge, now owned.
            self._adj[vid] = []
            self.num_ghosts -= 1

    def apply_edge(
        self,
        uid: int,
        u_label: int,
        u_part: int,
        vid: int,
        v_label: int,
        v_part: int,
    ) -> bool:
        """Apply one EdgeUpdate edge row; at least one endpoint is owned.
        Returns whether the edge was new (``False`` on duplicates)."""
        self._register(uid, u_label, u_part)
        self._register(vid, v_label, v_part)
        u_adj = self._adj.get(uid)
        v_adj = self._adj.get(vid)
        # A member's sorted adjacency is complete: it decides duplicates.
        if u_adj is not None:
            at = bisect_left(u_adj, vid)
            if at < len(u_adj) and u_adj[at] == vid:
                return False
            u_adj.insert(at, vid)
            if v_adj is not None:
                insort(v_adj, uid)
        else:
            at = bisect_left(v_adj, uid)
            if at < len(v_adj) and v_adj[at] == uid:
                return False
            v_adj.insert(at, uid)
        self.num_edges += 1
        if u_part != v_part:
            self.num_border_edges += 1
        return True

    def apply_rows(
        self,
        vertices: Iterable[Tuple[int, int, int]],
        edges: Iterable[Sequence[int]],
    ) -> List[int]:
        """Apply one round of vertex and edge rows; returns the endpoints of
        the new edges, two per edge (the round's cache-invalidation seeds)."""
        for vid, label_id, partition in vertices:
            self._register(vid, label_id, partition)
        endpoints: List[int] = []
        for row in edges:
            if self.apply_edge(*row):
                endpoints.append(row[0])
                endpoints.append(row[3])
        return endpoints

    # -- the executor's view surface ------------------------------------
    def neighbors(self, vid: int) -> List[int]:
        """All visible neighbours of member ``vid``, sorted.  Do not mutate."""
        return self._adj[vid]

    @property
    def label_of(self) -> Dict[int, int]:
        return self._label_of

    def has_edge_local(self, uid: int, vid: int) -> Optional[bool]:
        """Definitive membership test when either endpoint is a member;
        ``None`` when both are remote (only their owners can decide)."""
        adj = self._adj.get(uid)
        if adj is None:
            adj = self._adj.get(vid)
            if adj is None:
                return None
            vid = uid
        at = bisect_left(adj, vid)
        return at < len(adj) and adj[at] == vid

    def bfs_forward(
        self,
        seeds: Iterable[Tuple[int, int]],
        max_depth: int,
        settled: Optional[Dict[int, int]] = None,
    ) -> Tuple[Dict[int, int], List[Tuple[int, int]]]:
        """Dist-bucketed multi-source BFS over *member* adjacency.

        ``seeds`` are ``(vid, dist)`` pairs — new-edge endpoints at 0, or
        distances forwarded from other shards.  Returns the ``vid → dist``
        entries settled (or improved) *this wave* plus the forward list:
        ghosts first reached at ``0 < dist <= max_depth``, whose owning
        shard must continue the wave.  ``settled`` is the ingest round's
        accumulated map, threaded through successive waves of the same
        round so a vertex already covered at an equal-or-smaller distance
        neither re-expands nor re-forwards — that bound, with distances
        strictly increasing along forward chains, is what terminates the
        cross-shard wave.  Seed order is normalised (sorted, min dist per
        vid) so the settled map is bit-stable.
        """
        if settled is None:
            settled = {}
        buckets: List[List[int]] = [[] for _ in range(max_depth + 1)]
        best: Dict[int, int] = {}
        for vid, d in seeds:
            if d <= max_depth and (vid not in best or d < best[vid]):
                best[vid] = d
        for vid in sorted(best):
            buckets[best[vid]].append(vid)
        wave: Dict[int, int] = {}
        forwards: List[Tuple[int, int]] = []
        for d in range(max_depth + 1):
            for vid in buckets[d]:
                if vid in settled and settled[vid] <= d:
                    continue
                settled[vid] = d
                wave[vid] = d
                member = vid in self._adj
                if not member and d > 0:
                    forwards.append((vid, d))
                if member and d < max_depth:
                    bucket = buckets[d + 1]
                    for w in self._adj[vid]:  # detlint: disable=DET-setiter (sorted list)
                        if w not in settled or settled[w] > d + 1:
                            bucket.append(w)
        return wave, forwards

    @property
    def num_members(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardStores shard={self.shard_id}/{self.num_shards} "
            f"members={self.num_members} ghosts={self.num_ghosts} "
            f"|E|={self.num_edges}>"
        )
