"""Task DAGs of manipulation primitives and the context features fed to the model.

A task graph is a small DAG over primitive actions (reach, grasp, ...). The
per-trajectory context combines a one-hot of the active primitive with DAG
features and an optional target cell; the model consumes the feature vector
and, separately, the target.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

from .lattice import (LatticeCoord, check_magnitude, read_cell, read_int, read_list, read_number, read_object,
                      read_step, read_str)

TASK_KINDS: tuple[str, ...] = ("reach", "grasp", "lift", "transport", "place", "release")

# Normalizer for the sequence-length hint feature; generous upper bound on
# desk-scale path lengths.
LENGTH_HINT_NORM = 64

# one-hot(kind) + [normalized depth, unsatisfied predecessors, length hint]
TASK_FEATURE_WIDTH = len(TASK_KINDS) + 3


@dataclass(frozen=True)
class TaskNode:
    id: int
    kind: str
    attributes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}")


@dataclass(frozen=True)
class TaskGraph:
    nodes: tuple[TaskNode, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        ids = [n.id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("task node ids must be unique")

    def node(self, node_id: int) -> TaskNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no task node with id {node_id}")

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {"id": n.id, "kind": n.kind, "attributes": dict(n.attributes)}
                for n in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TaskGraph":
        nodes = []
        for i, n in enumerate(read_list(read_object(d, "task_graph")["nodes"], "task_graph.nodes")):
            name = f"task_graph.nodes[{i}]"
            attributes = read_object(read_object(n, name).get("attributes", {}), f"{name}.attributes")
            nodes.append(TaskNode(read_int(n["id"], f"{name}.id"), read_str(n["kind"], f"{name}.kind"),
                                  dict(attributes)))
        edges = tuple((read_int(a, f"task_graph.edges[{i}][0]"), read_int(b, f"task_graph.edges[{i}][1]"))
                      for i, (a, b) in enumerate(read_list(d["edges"], "task_graph.edges", pairs=True)))
        return cls(tuple(nodes), edges)


@dataclass(frozen=True)
class TaskContext:
    """Per-trajectory conditioning: features, active primitive, optional target."""

    task_feature_vector: tuple[float, ...]
    active_task_kind: str
    sequence_length_hint: int = 0
    target: LatticeCoord | None = None

    def __post_init__(self) -> None:
        if self.sequence_length_hint < 0:
            raise ValueError("sequence_length_hint must be non-negative")
        object.__setattr__(self, "task_feature_vector", tuple(float(v) for v in self.task_feature_vector))

    def with_hint(self, sequence_length_hint: int, target: LatticeCoord | None) -> "TaskContext":
        """This context with another length hint and target; the hint is the last feature."""
        return TaskContext(self.task_feature_vector[:-1] + (sequence_length_hint / LENGTH_HINT_NORM,),
                           self.active_task_kind, sequence_length_hint, target)

    def to_dict(self) -> dict:
        return {
            "feature": list(self.task_feature_vector),
            "active_kind": self.active_task_kind,
            "sequence_length_hint": self.sequence_length_hint,
            "target": list(self.target.as_tuple()) if self.target is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TaskContext":
        target = read_object(d, "context").get("target")
        if target is not None:
            target = read_cell(target, "context.target")
            check_magnitude(target.as_tuple(), "context.target")
        given = d["feature"]
        if type(given) is not list:
            raise ValueError(f"context.feature must be a list of numbers, got {json.dumps(given)}")
        try:  # all numbers: no loop
            feature = tuple(map(float, given)) if set(map(type, given)) <= {float, int} else None
        except OverflowError:  # an int too large for a float, which read_number names
            feature = None
        if feature is None:
            feature = tuple(read_number(v, f"context.feature[{i}]") for i, v in enumerate(given))
        if not all(map(math.isfinite, feature)):  # a NaN logit would defeat the decoder's legality mask
            i = next(i for i, v in enumerate(feature) if not math.isfinite(v))
            raise ValueError(f"context.feature[{i}] must be a finite number, got {feature[i]}")
        return cls(
            task_feature_vector=feature,
            active_task_kind=read_str(d["active_kind"], "context.active_kind"),
            sequence_length_hint=read_step(d.get("sequence_length_hint", 0), "context.sequence_length_hint"),
            target=target,
        )


def topological_order(g: TaskGraph) -> list[int]:
    """Kahn's algorithm with ascending-id tie-breaking. Raises on dangling edge endpoints and on cycles."""
    indeg = {n.id: 0 for n in g.nodes}
    succ: dict[int, list[int]] = {n.id: [] for n in g.nodes}
    for a, b in g.edges:
        for v in (a, b):
            if v not in indeg:
                raise ValueError(f"edge endpoint references missing task node id {v}")
        indeg[b] += 1
        succ[a].append(b)
    ready = [i for i, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(g.nodes):
        raise ValueError("task graph contains a directed cycle")
    return order


def node_depths(g: TaskGraph) -> dict[int, int]:
    """Longest-path depth of each node from the DAG roots."""
    order = topological_order(g)
    depths = {i: 0 for i in order}
    for i in order:
        for a, b in g.edges:
            if a == i:
                depths[b] = max(depths[b], depths[i] + 1)
    return depths


def build_context(
    g: TaskGraph,
    active_id: int,
    done: frozenset[int] | set[int] = frozenset(),
    sequence_length_hint: int = 0,
    target: LatticeCoord | None = None,
) -> TaskContext:
    """Deterministic context features for the active node of a task graph.

    Features: one-hot of the active kind, depth of the active node normalized
    by the graph's maximum depth, count of predecessors not yet in `done`,
    and the length hint normalized by LENGTH_HINT_NORM. All but the hint
    and the target depend on the graph, node and done set alone, so one
    context of a task template serves every record through with_hint.
    """
    node = g.node(active_id)
    depths = node_depths(g)
    max_depth = max(depths.values()) if depths else 0
    depth_norm = depths[active_id] / max_depth if max_depth > 0 else 0.0
    unsatisfied = sum(1 for a, b in g.edges if b == active_id and a not in done)
    one_hot = [1.0 if node.kind == k else 0.0 for k in TASK_KINDS]
    unhinted = TaskContext(tuple(one_hot + [depth_norm, float(unsatisfied), 0.0]), node.kind)
    return unhinted.with_hint(sequence_length_hint, target)


def chain_graph(kinds: tuple[str, ...]) -> TaskGraph:
    """Linear dependency chain over the given primitive kinds."""
    nodes = tuple(TaskNode(i, k) for i, k in enumerate(kinds))
    edges = tuple((i, i + 1) for i in range(len(kinds) - 1))
    return TaskGraph(nodes, edges)


def reach_only_graph() -> TaskGraph:
    return chain_graph(("reach",))
