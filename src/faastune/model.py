"""Core domain types: memory ladder, call graph, samples, profiles, cost model.

Everything here but the sample table is an immutable value with its
invariants checked at construction (so every profile's representatives are
finite and non-negative); no I/O and no search logic.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import DuplicateFunction, EmptyGroup, MissingProfile, PartialConfiguration

#: Platform memory sizes in MB, smallest to largest.
DEFAULT_MEMORY_MB = (128, 256, 512, 1024, 2048, 4096, 8192, 10240)

#: Default ladder cap: beyond 2 GB the extra vCPU share is useless to
#: single-threaded functions, so larger sizes only add cost.
DEFAULT_MEMORY_CAP_MB = 2048

#: Provider-typical execution price; a config value, not a contract.
DEFAULT_USD_PER_GB_SECOND = 1.6667e-5


@dataclass(frozen=True, slots=True)
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
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ValueError(f"memory sizes must be positive integers, got {v!r}")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"memory ladder must be strictly increasing: {self.values}")
        cap = self.cap_mb
        if cap is not None and (not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0):
            raise ValueError(f"cap_mb must be a positive integer or None, got {cap!r}")
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


@dataclass(frozen=True, slots=True)
class FunctionNode:
    """A single function invocation (leaf of the call graph)."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("function name must be non-empty")


@dataclass(frozen=True, slots=True)
class Sequence:
    """Children executed one after another; total time is the sum."""

    children: tuple["GraphNode", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


#: Profiling samples by memory size, then function:
#: ``samples[memory_mb][function]`` is the cell's column of durations in
#: seconds. In a profiling run, row k of every column at one memory size
#: is request k there. A cell exists from its first sample on.
Samples = dict[int, dict[str, list[float]]]


#: The ``sample_counts`` of every profile built without counts: one shared,
#: empty, read-only mapping.
_NO_COUNTS: Mapping[int, int] = MappingProxyType({})


def _check_memories(function: str, by_memory: Mapping[int, object]) -> None:
    """Raise ValueError for the first key of ``by_memory`` that is not a
    positive integer (a bool is not one)."""
    for memory_mb in by_memory:
        if not (isinstance(memory_mb, int) and not isinstance(memory_mb, bool) and memory_mb > 0):
            raise ValueError(f"memory size of {function!r} must be a positive integer, "
                             f"got {memory_mb!r}")


@dataclass(frozen=True, slots=True)
class FunctionProfile:
    """Latency representatives for one function across the memory ladder.

    ``representatives[m]`` is the ``alpha``-th percentile of the observed
    durations at memory ``m`` (after monotone repair, the running minimum
    of those percentiles), and ``sample_counts[m]`` is how many durations
    were observed there. The samples themselves are not kept. Both mappings
    are read-only copies of the ones passed in, each representative as a
    float, so a profile never changes once built; without counts, or when
    every count is zero (as a table saved without counts reads back),
    ``sample_counts`` is one shared empty mapping. Raises ValueError, by
    the rules :func:`~faastune.profiles.load_profiles` reads a saved table
    with, so every profile that builds loads back as an equal profile: for
    an ``alpha`` that is not an int or float in [0, 100], for the first
    memory size that is not a positive integer, for counts keyed at other
    memory sizes than the representatives, for the first representative
    that is not an int or float, or is NaN, infinite, negative or beyond
    the float range, and for the first sample count that is not a
    non-negative integer. Bools are not numbers here.
    """

    function: str
    alpha: float
    representatives: Mapping[int, float]
    # A mapping proxy is unhashable, so the dataclass takes it only from a factory.
    sample_counts: Mapping[int, int] = field(default_factory=lambda: _NO_COUNTS)

    def __post_init__(self):
        function, alpha = self.function, self.alpha
        if not (isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
                and 0 <= alpha <= 100):
            raise ValueError(f"alpha of {function!r} must be a number in [0, 100], got {alpha!r}")
        representatives = dict(self.representatives)
        _check_memories(function, representatives)
        for memory_mb, value in representatives.items():
            if type(value) is not float:  # held as the float its file reads back
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"representative of {function!r} at {memory_mb} MB is "
                                     f"{value!r}, not a number")
                try:
                    value = representatives[memory_mb] = float(value)
                except OverflowError:
                    raise ValueError(f"representative of {function!r} at {memory_mb} MB is "
                                     f"beyond the float range") from None
            if math.isnan(value):
                raise ValueError(f"representative of {function!r} at {memory_mb} MB is NaN")
            if not 0 <= value < math.inf:
                raise ValueError(f"representative of {function!r} at {memory_mb} MB is "
                                 f"{value!r}, not finite and non-negative")
        object.__setattr__(self, "representatives", MappingProxyType(representatives))
        counts = self.sample_counts
        if counts:
            counts = dict(counts)
            if counts.keys() != representatives.keys():
                _check_memories(function, counts)
                raise ValueError(f"sample counts of {function!r} are at {sorted(counts)} MB, "
                                 f"its representatives at {sorted(representatives)} MB")
            for memory_mb, count in counts.items():
                if not (isinstance(count, int) and not isinstance(count, bool) and count >= 0):
                    raise ValueError(f"sample count of {function!r} at {memory_mb} MB must be "
                                     f"a non-negative integer, got {count!r}")
        object.__setattr__(self, "sample_counts",
                           MappingProxyType(counts) if any(counts.values()) else _NO_COUNTS)

    def __reduce__(self):  # a mapping proxy does not pickle; the dicts it shows do
        return FunctionProfile, (self.function, self.alpha, dict(self.representatives),
                                 dict(self.sample_counts))

    def memories(self) -> tuple[int, ...]:
        return tuple(sorted(self.representatives))

    def representative(self, memory_mb: int) -> float:
        try:
            return self.representatives[memory_mb]
        except KeyError:
            raise MissingProfile(self.function, memory_mb) from None

    def sample_count(self, memory_mb: int) -> int:
        return self.sample_counts.get(memory_mb, 0)


@dataclass(frozen=True, slots=True)
class SloSpec:
    """Latency target: the ``percentile``-th end-to-end latency must stay
    at or below ``slo_seconds``."""

    slo_seconds: float
    percentile: float = 95.0

    def __post_init__(self):
        # Chained comparisons are false for NaN, so these reject it too.
        if not _is_number(self.slo_seconds) or not 0 < self.slo_seconds < math.inf:
            raise ValueError(f"slo_seconds must be positive and finite, got {self.slo_seconds!r}")
        if not _is_number(self.percentile) or not 0 < self.percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile!r}")


def _is_number(value: object) -> bool:
    """Whether ``value`` is a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Objective(str, Enum):
    """What to optimize on top of SLO feasibility."""

    FEASIBLE = "feasible"
    MIN_COST = "min-cost"
    MIN_TIME = "min-time"


@dataclass(frozen=True, slots=True)
class CostModel:
    """Linear execution pricing: USD per GB-second, billed in fixed ticks."""

    usd_per_gb_second: float = DEFAULT_USD_PER_GB_SECOND
    billing_granularity_ms: int = 1

    def __post_init__(self):
        price = self.usd_per_gb_second
        if not _is_number(price) or not 0 < price < math.inf:
            raise ValueError(f"usd_per_gb_second must be positive and finite, got {price!r}")
        gran = self.billing_granularity_ms
        # A bool is an int, and an int beyond the float range cannot divide
        # a float duration.
        if not (isinstance(gran, int) and not isinstance(gran, bool)
                and 0 < gran <= sys.float_info.max):
            raise ValueError("billing_granularity_ms must be a positive integer "
                             "within the float range")

    def cost_units(self, duration_s: float, memory_mb: int) -> int:
        """Exact cost of one invocation in MB-milliseconds: the duration
        rounded up to whole billing ticks, times granularity (ms) times
        memory (MB). Sums of these are exact and independent of order;
        :func:`configuration_cost` converts them to USD. Raises ValueError
        for a negative duration, or one too long to bill a finite number of
        ticks (from about 1.8e305 s)."""
        gran = self.billing_granularity_ms
        ticks = duration_s * 1000.0 / gran
        if not 0 <= ticks < math.inf:
            raise ValueError(f"duration_s must be non-negative and bill a finite number "
                             f"of ticks, got {duration_s!r}")
        # The 1e-9 slack keeps exact multiples (e.g. 0.1 s at 1 ms) from
        # being pushed into the next tick by float noise; a positive
        # duration it would round to nothing still bills one tick.
        return (math.ceil(ticks - 1e-9) or math.ceil(ticks)) * gran * memory_mb

    def usd(self, units: int) -> float:
        """USD for a sum of :meth:`cost_units`, converted once at the
        GB-second rate."""
        return units * self.usd_per_gb_second / 1_024_000


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
            raise MissingProfile(function)
        units += cost_model.cost_units(profile.representative(memory_mb), memory_mb)
    return cost_model.usd(units)


def check_configuration(graph: CallGraph, config: Mapping[str, int]) -> None:
    """Verify a configuration is total over the graph and assigns every
    function a positive integer memory size (a bool is not one).

    Raises :class:`PartialConfiguration` for the first function, in
    execution order, that ``config`` lacks, and ValueError for a function
    the graph does not have or a memory size that is not one.
    """
    for name in graph.functions():
        if name not in config:
            raise PartialConfiguration(name)
    extra = set(config).difference(graph.functions())
    if extra:
        raise ValueError(f"configuration assigns unknown functions: {sorted(extra)}")
    for name, memory_mb in config.items():
        if not isinstance(memory_mb, int) or isinstance(memory_mb, bool) or memory_mb <= 0:
            raise ValueError(f"{name!r}: memory must be a positive integer, got {memory_mb!r}")
