"""End-to-end application latency and cost estimation over a call graph.

Latency composes over the graph: a function contributes its representative
duration at the assigned memory, a sequence contributes the sum of its
children and a parallel group the maximum. Cost is schedule-independent.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import MissingProfile, PartialConfiguration
from .model import (
    CallGraph,
    CostModel,
    FunctionNode,
    FunctionProfile,
    GraphNode,
    Sequence,
    check_configuration,
    configuration_cost,
)


class GraphEvaluator:
    """End-to-end latency of one call graph, with per-function updates.

    ``evaluate`` composes a full set of per-function times; ``set`` then
    changes one function's time and recomputes the path from it towards
    the root, stopping at the first group whose child value is unchanged,
    since nothing above it can change. Every group reduces its children's
    current values with the builtin ``sum`` (sequence) or ``max``
    (parallel), left to right, so a value reached through any series of
    ``set`` calls is bit-identical to a full ``evaluate`` of the same times.
    """

    def __init__(self, graph: CallGraph):
        self._top = [0.0]  # the root's value
        # (name, parent's child values, slot) per function, in execution order
        self._leaves: list[tuple[str, list[float], int]] = []
        # (child values, reduce, parent's child values, slot) per group, in
        # reverse pre-order, so children come before their parents
        self._groups: list[tuple[list[float], Callable, list[float], int]] = []
        # per function, the (child values, slot, reduce) steps up to the root
        self._paths: dict[str, tuple[tuple[list[float], int, Callable], ...]] = {}
        pending: list[tuple[GraphNode, list[float], int, tuple]] = [
            (graph.root, self._top, 0, ())
        ]
        while pending:
            node, parent, slot, above = pending.pop()
            if isinstance(node, FunctionNode):
                self._leaves.append((node.name, parent, slot))
                self._paths[node.name] = above
                continue
            values = [0.0] * len(node.children)
            reduce = sum if isinstance(node, Sequence) else max
            self._groups.append((values, reduce, parent, slot))
            for index in range(len(node.children) - 1, -1, -1):
                path = ((values, index, reduce),) + above
                pending.append((node.children[index], values, index, path))
        self._groups.reverse()

    def evaluate(self, times: Mapping[str, float]) -> float:
        """Compose per-function durations (seconds) into the root's duration.

        Raises :class:`PartialConfiguration` for the first function, in
        execution order, that ``times`` lacks.
        """
        for name, values, slot in self._leaves:
            try:
                values[slot] = times[name]
            except KeyError:
                raise PartialConfiguration(name) from None
        for values, reduce, parent, slot in self._groups:
            parent[slot] = reduce(values)
        return self._top[0]

    def set(self, function: str, seconds: float) -> float:
        """Change one function's duration after :meth:`evaluate`; returns
        the new root duration."""
        value = seconds
        for values, slot, reduce in self._paths[function]:
            # Equal floats have equal bits, except 0.0 and -0.0.
            if values[slot] == value and value:
                return self._top[0]
            values[slot] = value
            value = reduce(values)
        self._top[0] = value
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

    Raises what :func:`check_configuration` raises for a configuration it
    rejects, and :class:`MissingProfile` when a function has no profile or
    its profile lacks the assigned memory.
    """
    check_configuration(graph, config)
    times: dict[str, float] = {}
    for name in graph.functions():
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
    """Estimated USD per invocation; independent of sequence/parallel shape.

    Raises what :func:`check_configuration` raises for a configuration it
    rejects, and :class:`MissingProfile` when a function has no profile or
    its profile lacks the assigned memory.
    """
    check_configuration(graph, config)
    return configuration_cost(config, profiles, cost_model)
