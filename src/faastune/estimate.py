"""End-to-end application latency and cost estimation over a call graph.

Latency composes over the graph: a function contributes its representative
duration at the assigned memory, a sequence contributes the sum of its
children and a parallel group the maximum. The composition is exact. Every
finite float is an integer times a power of two, so the durations are
scaled once, by one common power of two, to integers (:func:`time_shift`,
:func:`to_scaled`); sums and maxima of those integers lose nothing, and the
end-to-end value is rounded to the nearest float once (:func:`from_scaled`).
An estimate is therefore the correctly rounded series-parallel latency: the
same on every interpreter, whatever the order of a group's children. Cost
is schedule-independent.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import Iterable, Mapping

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


def time_shift(seconds: Iterable[float]) -> int:
    """The shift that makes every finite float of ``seconds`` an integer
    once multiplied by ``2**shift``: 53 less the binary exponent of the
    smallest nonzero magnitude (a float carries 53 significant bits), and
    never below 0; 0 when every value is zero."""
    seconds = list(seconds)
    smallest = min(filter(None, seconds), default=0.0)
    if smallest < 0:
        smallest = min(filter(None, map(abs, seconds)))
    return max(0, 53 - math.frexp(smallest)[1])


def to_scaled(seconds: Iterable[float], shift: int) -> list[int]:
    """Each of ``seconds`` times ``2**shift``, exactly, where ``shift``
    makes every one an integer (:func:`time_shift`). Raises ValueError for
    NaN or an infinity."""
    seconds = list(seconds)
    if shift <= 1023:  # 2**shift is a float: a product overflows to inf or is exact
        try:
            return list(map(math.floor, map(mul, seconds, repeat(math.ldexp(1.0, shift)))))
        except (OverflowError, ValueError):  # inf or NaN, given or from the product
            pass
    scaled = []
    for value in seconds:
        if not math.isfinite(value):
            raise ValueError(f"a duration must be finite, got {value!r}")
        numerator, denominator = value.as_integer_ratio()
        scaled.append(numerator * ((1 << shift) // denominator))
    return scaled


#: :func:`from_scaled` converts a total below this to a float directly: it
#: then rounds once and stays below the largest float.
_DIRECT_LIMIT = 1 << 1023


def from_scaled(total: int, shift: int) -> float:
    """``total / 2**shift`` rounded once to the nearest float (ties to
    even), or ``inf`` beyond the float range, as an overflowing float sum
    gives."""
    # float(total) rounds once; scaling it by 2**-shift is exact unless the
    # result falls below the smallest normal float, 2**-1022.
    if total < _DIRECT_LIMIT and (shift <= 1022 or total >> (shift - 1022)):
        return math.ldexp(total, -shift)
    try:
        return total / (1 << shift)  # int division rounds once, subnormals too
    except OverflowError:
        return math.inf


class GraphEvaluator:
    """End-to-end latency of one call graph, with per-function updates.

    The evaluator composes scaled integer durations (:func:`to_scaled`)
    exactly. ``evaluate_scaled`` composes a full set of them; ``set_scaled``
    then changes one function's value and updates the path from it towards
    the root: a sequence adds the child's difference to its running total,
    and a parallel group takes a larger child as its maximum and rescans its
    children only when its largest child falls. The update stops at the
    first group whose value is unchanged, since nothing above it can change,
    so on a wide sequence it costs the function's depth, not the width.
    Integer sums do not depend on order, so a value reached through any
    series of ``set_scaled`` calls equals a full ``evaluate_scaled`` of the
    same values. ``max_plus`` reads, from one walk of a function's path,
    the root's value as a function of that one function's value.

    ``evaluate`` composes durations in seconds: it scales them by the shift
    they need and rounds the root's exact value once.
    """

    def __init__(self, graph: CallGraph):
        self._top = [0]  # the root's value
        # (name, parent's child values, slot) per function, in execution order
        self._leaves: list[tuple[str, list[int], int]] = []
        # (child values, reduce, parent's child values, slot) per group, in
        # reverse pre-order, so children come before their parents
        self._groups: list[tuple[list[int], object, list[int], int]] = []
        # per function, one (child values, slot, is a sequence, the group's
        # parent's child values, the group's slot there) step per group up
        # to the root
        self._paths: dict[str, tuple[tuple[list[int], int, bool, list[int], int], ...]] = {}
        pending: list[tuple[GraphNode, list[int], int, tuple]] = [
            (graph.root, self._top, 0, ())
        ]
        while pending:
            node, parent, slot, above = pending.pop()
            if isinstance(node, FunctionNode):
                self._leaves.append((node.name, parent, slot))
                self._paths[node.name] = above
                continue
            values = [0] * len(node.children)
            sequence = isinstance(node, Sequence)
            self._groups.append((values, sum if sequence else max, parent, slot))
            for index in range(len(node.children) - 1, -1, -1):
                path = ((values, index, sequence, parent, slot),) + above
                pending.append((node.children[index], values, index, path))
        self._groups.reverse()

    def _compose(self) -> int:
        """Compose the groups, children first, once every function's value
        is in place."""
        for values, reduce, parent, slot in self._groups:
            parent[slot] = reduce(values)
        return self._top[0]

    def evaluate_scaled(self, scaled: Mapping[str, int]) -> int:
        """Compose per-function scaled durations into the root's exact value.

        Raises :class:`PartialConfiguration` for the first function, in
        execution order, that ``scaled`` lacks.
        """
        for name, values, slot in self._leaves:
            try:
                values[slot] = scaled[name]
            except KeyError:
                raise PartialConfiguration(name) from None
        return self._compose()

    def set_scaled(self, function: str, value: int) -> int:
        """Change one function's scaled duration after :meth:`evaluate_scaled`;
        returns the root's new exact value."""
        top = self._top
        for values, slot, sequence, up, at in self._paths[function]:
            old = values[slot]
            if old == value:
                return top[0]
            values[slot] = value
            if sequence:
                value = up[at] + value - old
            elif value > old:
                if value <= up[at]:  # still below the group's maximum
                    return top[0]
            elif old < up[at]:  # fell, and was not the maximum
                return top[0]
            else:  # the largest child fell
                value = max(values)
        top[0] = value
        return value

    def max_plus(self, function: str) -> tuple[int, int | None]:
        """``(a, b)`` such that, after :meth:`evaluate_scaled` and with every
        other function's value held, the root's exact value is
        ``max(x + a, b)`` for any value ``x`` of ``function``, or ``x + a``
        when ``b`` is None (no parallel group on the path). A sequence on
        the path adds its other children's sum to both, and a parallel group
        raises ``b`` to its other children's maximum."""
        a, b = 0, None
        for values, slot, sequence, up, at in self._paths[function]:
            if sequence:
                others = up[at] - values[slot]
                a += others
                if b is not None:
                    b += others
                continue
            others = up[at]
            if values[slot] == others:  # the maximum may be this child alone
                others = max(values[:slot] + values[slot + 1:])
            if b is None or others > b:
                b = others
        return a, b

    def evaluate(self, times: Mapping[str, float]) -> float:
        """Compose per-function durations (seconds) into the root's
        duration, rounded once.

        Raises :class:`PartialConfiguration` for the first function, in
        execution order, that ``times`` lacks, and ValueError for a
        duration that is NaN or infinite.
        """
        try:
            seconds = [times[name] for name, _, _ in self._leaves]
        except KeyError as missing:
            raise PartialConfiguration(missing.args[0]) from None
        shift = time_shift(seconds)
        for (_, values, slot), value in zip(self._leaves, to_scaled(seconds, shift)):
            values[slot] = value
        return from_scaled(self._compose(), shift)


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
