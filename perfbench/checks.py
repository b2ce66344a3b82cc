"""Output checks the benchmark runs after each timed phase.

Each check returns a list of failure messages; an empty list passes.  The
messages name the first offending vertex, partition or request so a failed
run says what broke.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

from repro.partitioning.state import PartitionState


def assignment_problems(state: PartitionState, vertices: Iterable) -> List[str]:
    """Every vertex sits in exactly one partition, the per-partition sizes
    agree with the assignment vector, and no partition exceeds capacity."""
    problems: List[str] = []
    vector = state.assignment_vector
    in_partition = state.in_partition_id
    id_of = state.interner.id_of
    counts = [0] * state.k
    expected = 0
    for v in vertices:
        expected += 1
        vid = id_of(v)
        if vid is None or vid >= len(vector) or vector[vid] < 0:
            problems.append(f"vertex {v!r} is unassigned")
            break
        p = vector[vid]
        holders = [i for i in range(state.k) if in_partition(vid, i)]
        if holders != [p]:
            problems.append(f"vertex {v!r} is in partitions {holders}, vector says {p}")
            break
        counts[p] += 1
    if not problems:
        if counts != state.sizes():
            problems.append(f"partition sizes {state.sizes()} != members counted {counts}")
        if state.num_assigned != expected:
            problems.append(f"{state.num_assigned} assigned, graph has {expected} vertices")
        over = [i for i, size in enumerate(counts) if size > state.capacity]
        if over:
            problems.append(f"partitions {over} exceed capacity {state.capacity:g}")
    return problems


def assignment_digest(state: PartitionState) -> str:
    """SHA-256 over the id-ordered assignment vector."""
    data = ",".join(map(str, state.assignment_vector)).encode()
    return hashlib.sha256(data).hexdigest()
