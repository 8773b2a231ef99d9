"""Every frozen value type of faastune is slotted and round-trips.

Builds one instance of each dataclass in ``faastune.model``, ``sim``,
``search`` and ``traces`` and checks that it has no ``__dict__``, stays
frozen, and comes back equal (and, where its fields are hashable, with an
equal hash) from pickle at every protocol, ``copy.deepcopy`` and
``dataclasses.replace``, with its ``init=False`` fields intact. It needs
nothing but the standard library and faastune, so
``test_interpreters.py`` runs it under every CPython from 3.10 on that
pyenv lists:

    PYTHONPATH=src python3 -B tests/value_types.py

Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import platform
import random
import sys

from faastune import model, search, sim, traces
from faastune.model import (
    CallGraph,
    CostModel,
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    Parallel,
    Sequence,
    SloSpec,
)
from faastune.search import SearchResult
from faastune.sim import SimFunctionSpec, generate_app, run_load, validate_config


def instances() -> list:
    """One instance of each value type."""
    app = generate_app(shape="demo6", seed=4)
    config = {name: 512 for name in app.graph.functions()}
    branches = Parallel((FunctionNode("f2"), FunctionNode("f3")))
    return [
        MemoryLadder(),
        FunctionNode("f1"),
        Sequence((FunctionNode("f1"), branches)),
        branches,
        CallGraph(Sequence((FunctionNode("f1"), branches))),
        FunctionProfile("f1", 90.0, {128: 2.0, 256: 1.0}, {128: 3, 256: 3}),
        SloSpec(2.0, 90.0),
        CostModel(2e-5, 100),
        SimFunctionSpec(work=300.0, cold_start_s=0.2, cold_start_prob=0.1, jitter_cv=0.01),
        app,
        validate_config(app, config, SloSpec(2.0), 20, random.Random(4)),
        SearchResult("greedy", config, 1.5, 3e-5, 7, 8),
        run_load(app, config, 2, random.Random(5)),
    ]


def value_types() -> set[type]:
    """Every dataclass the four modules define."""
    return {cls for module in (model, sim, search, traces)
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__}


def _hidden(value) -> dict:
    """The fields ``==`` skips (``compare=False``), by name."""
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if not f.compare}


def _hashable(value) -> bool:
    try:
        hash(tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare))
    except TypeError:
        return False
    return True


def problems(value) -> list[str]:
    """What is wrong with ``value``: empty when every check holds."""
    name = type(value).__name__
    found = []
    if hasattr(value, "__dict__"):
        found.append(f"{name} has a __dict__")
    first = dataclasses.fields(value)[0].name
    try:
        setattr(value, first, getattr(value, first))
        found.append(f"{name} is not frozen")
    except dataclasses.FrozenInstanceError:
        pass
    copies = {f"pickle protocol {protocol}": pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)}
    copies["copy.deepcopy"] = copy.deepcopy(value)
    copies["dataclasses.replace"] = dataclasses.replace(value)
    for how, twin in copies.items():
        if type(twin) is not type(value) or twin != value or _hidden(twin) != _hidden(value):
            found.append(f"{name} does not round-trip through {how}")
        elif _hashable(value) and hash(twin) != hash(value):
            found.append(f"{name} changes its hash through {how}")
    return found


def check() -> int:
    values = instances()
    found = [problem for value in values for problem in problems(value)]
    built = {type(value) for value in values}
    missing = sorted(cls.__name__ for cls in value_types() - built)
    if missing:
        found.append(f"no instance built of {missing}")
    for problem in found:
        print(problem)
    print(f"{platform.python_implementation()} {platform.python_version()}: "
          f"{len(values)} value types checked, {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(check())
