"""Tests for the composed Loom partitioner."""

import pytest

from repro.core.loom import LoomPartitioner
from repro.graph.stream import EdgeEvent, stream_edges
from repro.partitioning.state import PartitionState

from helpers import make_random_labelled_graph


def make_loom(workload, k=2, n=100, **kwargs) -> LoomPartitioner:
    state = PartitionState.for_graph(k, n)
    defaults = dict(window_size=10, support_threshold=0.4)
    defaults.update(kwargs)
    return LoomPartitioner(state, workload, **defaults)


class TestConstruction:
    def test_builds_trie_and_index(self, fig1_workload):
        loom = make_loom(fig1_workload)
        summary = loom.motif_summary()
        assert summary["trie_nodes"] == 10
        assert summary["motifs"] == 3
        assert summary["single_edge_motifs"] == 2
        assert summary["max_motif_edges"] == 2

    def test_defaults_match_paper(self, fig1_workload):
        state = PartitionState.for_graph(2, 100)
        loom = LoomPartitioner(state, fig1_workload)
        assert loom.matcher.window.capacity == 10_000
        assert loom.index.threshold == pytest.approx(0.4)
        assert loom.scheme.p == 251
        assert loom.allocator.alpha == pytest.approx(2.0 / 3.0)


class TestStreamingBehaviour:
    def test_non_motif_edge_assigned_immediately(self, fig1_workload):
        loom = make_loom(fig1_workload)
        loom.ingest(EdgeEvent(1, "c", 2, "d"))
        assert loom.state.is_assigned(1)
        assert loom.state.is_assigned(2)
        assert loom.stats["immediate_assignments"] == 1
        assert loom.window_occupancy == 0

    def test_motif_edge_deferred_to_window(self, fig1_workload):
        loom = make_loom(fig1_workload)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        assert not loom.state.is_assigned(1)
        assert loom.window_occupancy == 1

    def test_window_vertex_not_pinned_by_non_motif_edge(self, fig1_workload):
        """A non-motif edge must not pre-empt the window's jurisdiction
        over a vertex it currently holds."""
        loom = make_loom(fig1_workload)
        loom.ingest(EdgeEvent(2, "b", 3, "c"))  # motif edge: 2, 3 in window
        loom.ingest(EdgeEvent(3, "c", 4, "d"))  # non-motif edge touching 3
        assert not loom.state.is_assigned(3)
        assert loom.state.is_assigned(4)

    def test_overflow_triggers_eviction(self, fig1_workload):
        loom = make_loom(fig1_workload, window_size=2)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        loom.ingest(EdgeEvent(3, "a", 4, "b"))
        assert loom.stats["evictions"] == 0
        loom.ingest(EdgeEvent(5, "a", 6, "b"))
        assert loom.stats["evictions"] >= 1
        assert loom.state.is_assigned(1)
        assert loom.state.is_assigned(2)

    def test_finalize_drains_window(self, fig1_workload):
        loom = make_loom(fig1_workload, window_size=50)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        loom.ingest(EdgeEvent(2, "b", 3, "c"))
        loom.finalize()
        assert loom.window_occupancy == 0
        for v in (1, 2, 3):
            assert loom.state.is_assigned(v)

    def test_motif_cluster_lands_in_one_partition(self, fig1_workload):
        """An a-b-c motif match should be co-located on eviction."""
        loom = make_loom(fig1_workload, window_size=50)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        loom.ingest(EdgeEvent(2, "b", 3, "c"))
        loom.finalize()
        assert (
            loom.state.partition_of(1)
            == loom.state.partition_of(2)
            == loom.state.partition_of(3)
        )


class TestFullStream:
    @pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
    def test_every_vertex_assigned(self, fig1_workload, order):
        g = make_random_labelled_graph(num_vertices=80, num_edges=160, seed=11)
        state = PartitionState.for_graph(4, g.num_vertices)
        loom = LoomPartitioner(state, fig1_workload, window_size=20)
        loom.ingest_all(stream_edges(g, order, seed=2))
        assert state.num_assigned == g.num_vertices
        assert loom.window_occupancy == 0

    def test_balance_respects_capacity(self, fig1_workload):
        g = make_random_labelled_graph(num_vertices=120, num_edges=260, seed=3)
        state = PartitionState.for_graph(4, g.num_vertices)
        loom = LoomPartitioner(state, fig1_workload, window_size=30)
        loom.ingest_all(stream_edges(g, "bfs", seed=0))
        assert max(state.sizes()) <= state.capacity

    def test_deterministic_given_seed(self, fig1_workload):
        g = make_random_labelled_graph(num_vertices=60, num_edges=120, seed=5)
        events = list(stream_edges(g, "random", seed=7))
        assignments = []
        for _ in range(2):
            state = PartitionState.for_graph(4, g.num_vertices)
            loom = LoomPartitioner(state, fig1_workload, window_size=15, seed=3)
            loom.ingest_all(events)
            assignments.append(state.assignment())
        assert assignments[0] == assignments[1]

    def test_per_event_ingest_matches_ingest_all(self, fig5_workload):
        """The batch loop is :meth:`ingest` with hot locals bound once:
        same placements and the same matcher counters."""
        graph = make_random_labelled_graph(50, 120, seed=11)
        events = list(stream_edges(graph, "bfs", seed=2))
        state_a = PartitionState.for_graph(4, 50)
        loom_a = LoomPartitioner(state_a, fig5_workload, window_size=25, seed=0)
        for event in events:
            loom_a.ingest(event)
        loom_a.finalize()
        state_b = PartitionState.for_graph(4, 50)
        loom_b = LoomPartitioner(state_b, fig5_workload, window_size=25, seed=0)
        loom_b.ingest_all(events)
        assert state_a.assignment() == state_b.assignment()
        assert loom_a.matcher.stats.as_dict() == loom_b.matcher.stats.as_dict()

    def test_ablation_flags_accepted(self, fig1_workload):
        g = make_random_labelled_graph(num_vertices=40, num_edges=80, seed=9)
        for kwargs in (
            {"rationing_enabled": False},
            {"support_weighting": False},
            {"neighbor_aware_bids": True},
            {"max_matches_per_vertex": 2},
        ):
            state = PartitionState.for_graph(2, g.num_vertices)
            loom = LoomPartitioner(state, fig1_workload, window_size=10, **kwargs)
            loom.ingest_all(stream_edges(g, "bfs", seed=0))
            assert state.num_assigned == g.num_vertices
