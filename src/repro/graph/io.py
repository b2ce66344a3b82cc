"""Plain-text serialisation for labelled graphs and edge streams.

Format (one record per line, ``#`` comments ignored)::

    v <vertex-id> <label>
    e <vertex-id> <vertex-id>

Streams serialise as ``s <u> <u_label> <v> <v_label>`` lines so the arrival
order is preserved exactly.  Vertex ids are written verbatim and parsed back
as ``int`` when possible, else kept as strings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, TextIO, Union

from repro.graph.labelled_graph import LabelledGraph, Vertex
from repro.graph.stream import EdgeEvent

PathLike = Union[str, Path]


def _parse_vertex(token: str) -> Vertex:
    try:
        return int(token)
    except ValueError:
        return token


def write_graph(graph: LabelledGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` in the ``v``/``e`` line format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# labelled graph {graph.name!r}: |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        for v in sorted(graph.vertices(), key=repr):
            f.write(f"v {v} {graph.label(v)}\n")
        for u, v in sorted(graph.edges(), key=repr):
            f.write(f"e {u} {v}\n")


def read_graph(path: PathLike, name: str = "") -> LabelledGraph:
    """Read a graph previously written by :func:`write_graph`.

    Any bad record — unknown syntax, a self-loop, an edge to a vertex with
    no ``v`` line above it, a relabelled vertex — raises ``ValueError``
    naming ``path:line``.
    """
    g = LabelledGraph(name or Path(path).stem)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "v" and len(parts) == 3:
                    g.add_vertex(_parse_vertex(parts[1]), parts[2])
                elif kind == "e" and len(parts) == 3:
                    g.add_edge(_parse_vertex(parts[1]), _parse_vertex(parts[2]))
                else:
                    raise ValueError(f"unrecognised record {line!r}")
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
    return g


def write_stream(events: Iterable[EdgeEvent], path: PathLike) -> int:
    """Write an edge stream; returns the number of events written."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for ev in events:
            f.write(f"s {ev.u} {ev.u_label} {ev.v} {ev.v_label}\n")
            count += 1
    return count


def _iter_stream_lines(f: TextIO, path: PathLike) -> Iterator[EdgeEvent]:
    for lineno, raw in enumerate(f, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "s" or len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: unrecognised stream record {line!r}")
        yield EdgeEvent(_parse_vertex(parts[1]), parts[2], _parse_vertex(parts[3]), parts[4])


def read_stream(path: PathLike) -> List[EdgeEvent]:
    """Read a stream previously written by :func:`write_stream`."""
    with open(path, "r", encoding="utf-8") as f:
        return list(_iter_stream_lines(f, path))
