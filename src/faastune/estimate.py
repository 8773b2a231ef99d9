"""End-to-end application latency and cost estimation over a call graph.

Latency composes over the graph: a function contributes its representative
duration at the assigned memory, a sequence contributes the sum of its
children and a parallel group the maximum. Cost is schedule-independent.
"""

from __future__ import annotations

from typing import Mapping

from .errors import MissingProfile, PartialConfiguration
from .model import (
    CallGraph,
    CostModel,
    FunctionNode,
    FunctionProfile,
    GraphNode,
    Sequence,
    configuration_cost,
)


class GraphEvaluator:
    """End-to-end latency of one call graph, laid out flat in post-order.

    ``evaluate`` composes a full set of per-function times; ``set`` then
    changes one function's time and recomputes only the path from it to
    the root. Every group reduces its children's current values with the
    builtin ``sum`` (sequence) or ``max`` (parallel), left to right, so a
    value reached through any series of ``set`` calls is bit-identical to
    a full ``evaluate`` of the same times.
    """

    def __init__(self, graph: CallGraph):
        self._names: list[str | None] = []  # function name of a leaf, None for a group
        self._reduce: list = []  # sum or max for a group, None for a leaf
        self._kids: list[list[float] | None] = []  # current child values of a group
        self._parent: list[int] = []
        self._slot: list[int] = []
        self._leaf: dict[str, int] = {}
        self._add(graph.root)

    def _add(self, node: GraphNode) -> int:
        if isinstance(node, FunctionNode):
            index = len(self._names)
            self._leaf[node.name] = index
            self._names.append(node.name)
            self._reduce.append(None)
            self._kids.append(None)
        else:
            children = [self._add(child) for child in node.children]
            index = len(self._names)
            for slot, child in enumerate(children):
                self._parent[child] = index
                self._slot[child] = slot
            self._names.append(None)
            self._reduce.append(sum if isinstance(node, Sequence) else max)
            self._kids.append([0.0] * len(children))
        self._parent.append(-1)
        self._slot.append(0)
        return index

    def evaluate(self, times: Mapping[str, float]) -> float:
        """Compose per-function durations (seconds) into the root's duration.

        Raises :class:`PartialConfiguration` for the first function, in
        execution order, that ``times`` lacks.
        """
        value = 0.0
        for index, reduce in enumerate(self._reduce):
            if reduce is None:
                name = self._names[index]
                try:
                    value = times[name]
                except KeyError:
                    raise PartialConfiguration(name) from None
            else:
                value = reduce(self._kids[index])
            parent = self._parent[index]
            if parent >= 0:
                self._kids[parent][self._slot[index]] = value
        return value

    def set(self, function: str, seconds: float) -> float:
        """Change one function's duration after :meth:`evaluate`; returns
        the new root duration."""
        index = self._leaf[function]
        value = seconds
        parent = self._parent[index]
        while parent >= 0:
            kids = self._kids[parent]
            kids[self._slot[index]] = value
            value = self._reduce[parent](kids)
            index = parent
            parent = self._parent[index]
        return value


def combine_times(graph: CallGraph, times: Mapping[str, float]) -> float:
    """Compose per-function durations into an end-to-end duration."""
    return GraphEvaluator(graph).evaluate(times)


def estimate_time(
    graph: CallGraph,
    config: Mapping[str, int],
    profiles: Mapping[str, FunctionProfile],
) -> float:
    """Estimated end-to-end latency (seconds) for a memory configuration.

    Raises :class:`PartialConfiguration` when the configuration misses a
    function and :class:`MissingProfile` when a function has no profile or
    its profile lacks the assigned memory.
    """
    times: dict[str, float] = {}
    for name in graph.functions():
        if name not in config:
            raise PartialConfiguration(name)
        profile = profiles.get(name)
        if profile is None:
            raise MissingProfile(name)
        times[name] = profile.representative(config[name])
    return combine_times(graph, times)


def estimate_cost(
    graph: CallGraph,
    config: Mapping[str, int],
    profiles: Mapping[str, FunctionProfile],
    cost_model: CostModel,
) -> float:
    """Estimated USD per invocation; independent of sequence/parallel shape."""
    restricted: dict[str, int] = {}
    for name in graph.functions():
        if name not in config:
            raise PartialConfiguration(name)
        restricted[name] = config[name]
    return configuration_cost(restricted, profiles, cost_model)
