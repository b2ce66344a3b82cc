"""The serving layer's correctness anchor.

On full enumeration, the engine's partition-local expansion must charge
exactly the hops the offline :class:`WorkloadExecutor` counts as
``cut_traversals`` — per query, for every partitioner, on the figure-1
graph and on a random one.  Anything else means the serving layer answers
a different question than the metric the paper optimises.
"""

import pytest

from helpers import make_random_labelled_graph

from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.graph.stream import stream_edges
from repro.partitioning import registry
from repro.partitioning.registry import BUILTIN_SYSTEMS
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.query.pattern import cycle_pattern, path_pattern
from repro.query.workload import Workload
from repro.serving import ServingEngine
from repro.serving.router import BUILTIN_ROUTERS


def _random_case():
    graph = make_random_labelled_graph(60, 130, seed=11)
    workload = Workload(
        [
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
            (cycle_pattern(["a", "b", "a", "b"], name="abab"), 0.3),
            (path_pattern(["c", "b"], name="cb"), 0.2),
        ],
        name="random",
    )
    return graph, workload


CASES = {
    "figure1": lambda: (figure1_graph(), figure1_workload()),
    "random": _random_case,
}


def _partition(system, graph, workload, k, seed=0):
    state = PartitionState.for_graph(k, graph.num_vertices)
    partitioner = registry.create(
        system,
        state,
        graph=graph,
        workload=workload,
        window_size=max(8, graph.num_edges // 4),
        seed=seed,
    )
    partitioner.ingest_all(stream_edges(graph, "bfs", seed=seed))
    return state


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("system", BUILTIN_SYSTEMS)
def test_hops_bit_match_cut_traversals(case, system):
    """Per query: engine hops == executor cut_traversals, embeddings and
    traversals identical, weighted totals equal — full enumeration."""
    graph, workload = CASES[case]()
    k = 2 if case == "figure1" else 4
    state = _partition(system, graph, workload, k)
    executor = WorkloadExecutor(graph, workload, embedding_limit=None)
    offline = executor.execute(state, system)
    engine = ServingEngine(graph, state, workload)
    served = engine.execute_workload(system)

    offline_by_name = {q.name: q for q in offline.queries}
    assert {q.name for q in served.queries} == set(offline_by_name)
    for query in served.queries:
        reference = offline_by_name[query.name]
        assert query.hops == reference.cut_traversals
        assert query.embeddings == reference.embeddings
        assert query.traversals == reference.traversals
        assert query.frequency == reference.frequency
    assert served.weighted_hops == offline.weighted_ipt
    assert served.total_hops == offline.total_cut_traversals


@pytest.mark.parametrize("router", BUILTIN_ROUTERS)
def test_equivalence_holds_for_every_router(router):
    """Routing changes dispatch, never answers: same hops under any router."""
    graph, workload = CASES["random"]()
    state = _partition("ldg", graph, workload, k=4)
    offline = WorkloadExecutor(graph, workload, embedding_limit=None).execute(state, "ldg")
    engine = ServingEngine(graph, state, workload, router=router)
    served = engine.execute_workload("ldg")
    assert served.weighted_hops == offline.weighted_ipt
    for query, reference in zip(served.queries, offline.queries):
        assert (query.name, query.hops, query.embeddings) == (
            reference.name,
            reference.cut_traversals,
            reference.embeddings,
        )


def test_cache_does_not_change_totals():
    """A warmed cache must serve the same totals as a cold engine."""
    graph, workload = CASES["random"]()
    state = _partition("fennel", graph, workload, k=4)
    cold = ServingEngine(graph, state, workload, cache=None).execute_workload()
    engine = ServingEngine(graph, state, workload, cache=True)
    first = engine.execute_workload()
    warmed = engine.execute_workload()  # second pass is all cache hits
    for a, b, c in zip(cold.queries, first.queries, warmed.queries):
        assert a.hops == b.hops == c.hops
        assert a.embeddings == b.embeddings == c.embeddings
    assert warmed.queries[-1].cache_hits > 0


def test_streamed_engine_matches_static_build():
    """Ingesting through the engine batch by batch lands in the same place
    as materialising the stores from the finished graph."""
    from repro.graph.labelled_graph import LabelledGraph
    from repro.graph.stream import batched

    graph, workload = CASES["random"]()
    events = list(stream_edges(graph, "random", seed=3))
    for system in BUILTIN_SYSTEMS:
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create(
            system,
            state,
            graph=graph,
            workload=workload,
            window_size=30,
            seed=0,
        )
        live = LabelledGraph("live")
        engine = ServingEngine(live, state, workload, partitioner=partitioner)
        for chunk in batched(events, 37):
            engine.ingest(chunk)
        engine.finalize()
        assert engine.index.num_pending == 0
        assert engine.index.num_edges == graph.num_edges

        static = ServingEngine(graph, state, workload)
        served = engine.execute_workload(system)
        reference = static.execute_workload(system)
        for a, b in zip(served.queries, reference.queries):
            assert (a.name, a.hops, a.embeddings) == (b.name, b.hops, b.embeddings)
