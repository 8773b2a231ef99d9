"""Exception types raised across the package."""


class FaastuneError(Exception):
    """Base class for all faastune errors."""


class DuplicateFunction(FaastuneError):
    """A function name appears more than once in a call graph."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"function {name!r} appears more than once in the call graph")


class EmptyGroup(FaastuneError):
    """A sequence has no children, or a parallel group has fewer than two."""


class MissingProfile(FaastuneError):
    """No latency representative is available for (function, memory)."""

    def __init__(self, function: str, memory_mb: int | None = None):
        self.function = function
        self.memory_mb = memory_mb
        at = f" at {memory_mb} MB" if memory_mb is not None else ""
        super().__init__(f"no profile for function {function!r}{at}")


class PartialConfiguration(FaastuneError):
    """A memory configuration does not cover every function in the graph."""

    def __init__(self, function: str):
        self.function = function
        super().__init__(f"configuration has no memory assignment for {function!r}")


class ParseError(FaastuneError):
    """A trace file line could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class MultipleRoots(FaastuneError):
    """A trace contains more than one segment without a parent."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        super().__init__(f"trace {trace_id!r} has more than one root segment")


class OrphanSegment(FaastuneError):
    """A segment references a parent that does not exist in its trace."""

    def __init__(self, segment_id: str):
        self.segment_id = segment_id
        super().__init__(f"segment {segment_id!r} references an unknown parent")


class UnreachableSegment(FaastuneError):
    """A segment's parent chain never reaches its trace's root (a cycle)."""

    def __init__(self, segment_id: str):
        self.segment_id = segment_id
        super().__init__(f"segment {segment_id!r} does not reach its trace's root segment")


class InconsistentTopology(FaastuneError):
    """Traces disagree on the application structure beyond the majority rule."""


class EmptyAfterFiltering(FaastuneError):
    """No function segments remain once backend services are filtered out."""


class MissingMemoryAnnotation(FaastuneError):
    """A function segment carries no memory size."""

    def __init__(self, segment_id: str):
        self.segment_id = segment_id
        super().__init__(f"segment {segment_id!r} has no memory_mb annotation")


class SchemaError(FaastuneError):
    """A declarative graph or app file violates its schema."""


class MissingCell(FaastuneError):
    """No samples exist for a (function, ladder memory) cell."""

    def __init__(self, function: str, memory_mb: int):
        self.function = function
        self.memory_mb = memory_mb
        super().__init__(f"no samples for {function!r} at {memory_mb} MB")


class InsufficientSamples(FaastuneError):
    """Too few (or misaligned) samples to fit and validate the model."""


class ProfileNotMonotone(FaastuneError):
    """A profile's representatives increase with memory; repair or acknowledge."""

    def __init__(self, function: str):
        self.function = function
        super().__init__(
            f"profile for {function!r} is not non-increasing in memory; "
            "apply monotone repair or pass allow_non_monotone=True"
        )


class SearchSpaceTooLarge(FaastuneError):
    """The exhaustive search space exceeds the evaluation guard."""

    def __init__(self, combinations: int, limit: int):
        self.combinations = combinations
        self.limit = limit
        super().__init__(
            f"exhaustive search would evaluate {combinations} configurations "
            f"(guard limit {limit}); use the greedy search or a shorter ladder"
        )


class InvalidShape(FaastuneError):
    """Unknown generated-app shape or invalid function count."""
