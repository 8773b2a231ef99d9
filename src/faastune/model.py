"""Core domain types: memory ladder, call graph, samples, profiles, cost model.

Everything here is an immutable value with its invariants checked at
construction; no I/O and no search logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Union

from .errors import DuplicateFunction, EmptyGroup, MissingProfile, PartialConfiguration

#: Platform memory sizes in MB, smallest to largest.
DEFAULT_MEMORY_MB = (128, 256, 512, 1024, 2048, 4096, 8192, 10240)

#: Default ladder cap: beyond 2 GB the extra vCPU share is useless to
#: single-threaded functions, so larger sizes only add cost.
DEFAULT_MEMORY_CAP_MB = 2048

#: Provider-typical execution price; a config value, not a contract.
DEFAULT_USD_PER_GB_SECOND = 1.6667e-5


@dataclass(frozen=True)
class MemoryLadder:
    """The discrete set of allowed memory sizes, optionally capped.

    ``values`` must be strictly increasing positive integers (MB). When
    ``cap_mb`` is set, the effective ladder is the prefix of values that
    do not exceed it.
    """

    values: tuple[int, ...] = DEFAULT_MEMORY_MB
    cap_mb: int | None = DEFAULT_MEMORY_CAP_MB

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("memory ladder must not be empty")
        for v in self.values:
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"memory sizes must be positive integers, got {v!r}")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"memory ladder must be strictly increasing: {self.values}")
        if self.cap_mb is not None and self.cap_mb <= 0:
            raise ValueError("cap_mb must be positive")
        if not self.effective():
            raise ValueError(f"cap {self.cap_mb} MB leaves no usable ladder values")

    def effective(self) -> tuple[int, ...]:
        """Ladder values at or below the cap."""
        if self.cap_mb is None:
            return self.values
        return tuple(v for v in self.values if v <= self.cap_mb)

    @property
    def maximum(self) -> int:
        return self.effective()[-1]


@dataclass(frozen=True)
class FunctionNode:
    """A single function invocation (leaf of the call graph)."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("function name must be non-empty")


@dataclass(frozen=True)
class Sequence:
    """Children executed one after another; total time is the sum."""

    children: tuple["GraphNode", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Parallel:
    """Children executed concurrently; total time is the maximum."""

    children: tuple["GraphNode", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


GraphNode = Union[FunctionNode, Sequence, Parallel]


def iter_function_names(node: GraphNode) -> Iterator[str]:
    """Yield function names in left-to-right (execution) order."""
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, FunctionNode):
            yield node.name
        else:
            pending.extend(reversed(node.children))


@dataclass(frozen=True)
class CallGraph:
    """Recursive sequence/parallel composition of function invocations.

    Construction puts ``root`` in canonical form: same-kind nesting is
    spliced out, single-child sequences collapse and parallel branches are
    ordered by the smallest function name they contain. Raises
    :class:`EmptyGroup` on arity violations and :class:`DuplicateFunction`
    if any function appears twice.
    """

    root: GraphNode
    _functions: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        root = _normalize_node(self.root)
        names = tuple(iter_function_names(root))
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DuplicateFunction(name)
            seen.add(name)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_functions", names)

    def functions(self) -> tuple[str, ...]:
        return self._functions


def _min_name(node: GraphNode) -> str:
    return min(iter_function_names(node))


def _normalize_node(node: GraphNode) -> GraphNode:
    if isinstance(node, FunctionNode):
        return node
    children = tuple(_normalize_node(c) for c in node.children)
    # Sum and max are associative, so same-kind nesting carries no meaning;
    # splicing it out gives every graph a unique canonical form (which is
    # what lets trace reconstruction invert app generation exactly).
    flattened: list[GraphNode] = []
    for child in children:
        if isinstance(child, type(node)):
            flattened.extend(child.children)
        else:
            flattened.append(child)
    if isinstance(node, Sequence):
        if not flattened:
            raise EmptyGroup("sequence with no children")
        if len(flattened) == 1:
            return flattened[0]
        return Sequence(tuple(flattened))
    if len(flattened) < 2:
        raise EmptyGroup("parallel group needs at least two children")
    # max() is commutative: order parallel branches by the smallest function
    # name they contain to make graphs comparable.
    return Parallel(tuple(sorted(flattened, key=_min_name)))


@dataclass(frozen=True)
class ExecutionSample:
    """One observed execution of a function at a given memory size."""

    function: str
    memory_mb: int
    duration_s: float
    cold_start: bool = False

    def __post_init__(self):
        if not self.function:
            raise ValueError("function name must be non-empty")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")


@dataclass(frozen=True)
class FunctionProfile:
    """Latency representatives for one function across the memory ladder.

    ``representatives[m]`` is the ``alpha``-th percentile of the observed
    durations at memory ``m`` (after monotone repair, the running minimum
    of those percentiles), and ``sample_counts[m]`` is how many durations
    were observed there. The samples themselves are not kept.
    """

    function: str
    alpha: float
    representatives: Mapping[int, float]
    sample_counts: Mapping[int, int] = field(default_factory=dict)

    def memories(self) -> tuple[int, ...]:
        return tuple(sorted(self.representatives))

    def representative(self, memory_mb: int) -> float:
        try:
            return self.representatives[memory_mb]
        except KeyError:
            raise MissingProfile(self.function, memory_mb) from None

    def sample_count(self, memory_mb: int) -> int:
        return self.sample_counts.get(memory_mb, 0)


@dataclass(frozen=True)
class SloSpec:
    """Latency target: the ``percentile``-th end-to-end latency must stay
    at or below ``slo_seconds``."""

    slo_seconds: float
    percentile: float = 95.0

    def __post_init__(self):
        if not 0 < self.slo_seconds < math.inf:
            raise ValueError("slo_seconds must be positive and finite")
        if not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")


class Objective(str, Enum):
    """What to optimize on top of SLO feasibility."""

    FEASIBLE = "feasible"
    MIN_COST = "min-cost"
    MIN_TIME = "min-time"


@dataclass(frozen=True)
class CostModel:
    """Linear execution pricing: USD per GB-second, billed in fixed ticks."""

    usd_per_gb_second: float = DEFAULT_USD_PER_GB_SECOND
    billing_granularity_ms: int = 1

    def __post_init__(self):
        if not 0 < self.usd_per_gb_second < math.inf:
            raise ValueError("usd_per_gb_second must be positive and finite")
        if self.billing_granularity_ms <= 0:
            raise ValueError("billing_granularity_ms must be positive")

    def cost_units(self, duration_s: float, memory_mb: int) -> int:
        """Exact cost of one invocation in MB-milliseconds: the duration
        rounded up to whole billing ticks, times granularity (ms) times
        memory (MB). Sums of these are exact and independent of order;
        :func:`configuration_cost` converts them to USD."""
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        gran = self.billing_granularity_ms
        # The 1e-9 slack keeps exact multiples (e.g. 0.1 s at 1 ms) from
        # being pushed into the next tick by float noise.
        return math.ceil(duration_s * 1000.0 / gran - 1e-9) * gran * memory_mb


def configuration_cost(
    config: Mapping[str, int],
    profiles: Mapping[str, FunctionProfile],
    cost_model: CostModel,
) -> float:
    """Estimated USD per application invocation for a memory configuration.

    Sums each function's exact integer cost (representative duration rounded
    up to the billing granularity, in ms, times memory in MB) and converts
    the total to USD once, at the GB-second rate.
    """
    units = 0
    for function, memory_mb in config.items():
        profile = profiles.get(function)
        if profile is None:
            raise MissingProfile(function, memory_mb)
        units += cost_model.cost_units(profile.representative(memory_mb), memory_mb)
    return units * cost_model.usd_per_gb_second / 1_024_000


def check_configuration(graph: CallGraph, config: Mapping[str, int]) -> None:
    """Verify a configuration is total over the graph and assigns every
    function a positive integer memory size."""
    functions = set(graph.functions())
    for name in functions:
        if name not in config:
            raise PartialConfiguration(name)
    extra = set(config) - functions
    if extra:
        raise ValueError(f"configuration assigns unknown functions: {sorted(extra)}")
    for name, memory_mb in config.items():
        if not isinstance(memory_mb, int) or memory_mb <= 0:
            raise ValueError(f"{name!r}: memory must be a positive integer, got {memory_mb!r}")
