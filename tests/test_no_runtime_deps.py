"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency; this pins it where it
matters: a fresh interpreter that imports :mod:`repro`, partitions a small
stream with Loom and serves one request never loads numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro
from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.graph.stream import stream_edges
from repro.partitioning.state import PartitionState
from repro.serving.engine import ServingEngine

graph, workload = figure1_graph(), figure1_workload()
state = PartitionState.for_graph(2, graph.num_vertices)
repro.LoomPartitioner(state, workload, window_size=8).ingest_all(stream_edges(graph, "bfs"))
assert state.num_assigned == graph.num_vertices
ServingEngine(graph, state, workload).execute_query("q2")
assert "numpy" not in sys.modules, "repro imported numpy"
"""


def test_loom_and_serving_never_import_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
