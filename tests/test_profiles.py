import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from faastune import (
    CallGraph,
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    build_profiles,
    generate_app,
    load_profiles,
    monotone_repair,
    percentile_linear,
    save_profiles,
    select_alpha,
)
from faastune.errors import FaastuneError, InsufficientSamples, MissingCell
from faastune.estimate import combine_times
from faastune.model import DEFAULT_MEMORY_MB
from faastune.profiles import DEFAULT_ALPHA_CANDIDATES
from helpers import make_profile, reference_build_profiles, reference_select_alpha, sample_table


def _samples(function, memory, durations):
    return [(function, memory, d) for d in durations]


# --- percentile --------------------------------------------------------------


def test_median_of_five():
    assert percentile_linear([1, 2, 3, 4, 5], 50) == 3.0


def test_single_sample_any_percentile():
    for pct in (0, 37.5, 50, 99, 100):
        assert percentile_linear([4.2], pct) == 4.2


def test_interpolated_tail_percentile():
    # rank 0.99 * 4 = 3.96 -> 1 + 0.96 * (100 - 1)
    assert percentile_linear([1, 1, 1, 1, 100], 99) == pytest.approx(96.04, rel=1e-12)


@pytest.mark.parametrize("values, pct, message", [
    ([], 50, "cannot take a percentile of no values"),
    ([1.0], 101, r"pct must be in \[0, 100\]"),
    ([1.0], -1, r"pct must be in \[0, 100\]"),
], ids=["no-values", "above-100", "below-0"])
def test_percentile_rejects_no_values_and_a_pct_outside_0_to_100(values, pct, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        percentile_linear(values, pct)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50),
    st.floats(min_value=0, max_value=100),
)
def test_percentile_matches_numpy_and_stays_in_range(values, pct):
    ours = percentile_linear(values, pct)
    assert min(values) <= ours <= max(values)
    assert ours == pytest.approx(float(np.percentile(values, pct)), rel=1e-9, abs=1e-9)


# --- build_profiles ----------------------------------------------------------


def test_build_profiles_takes_alpha_percentile_per_cell():
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    samples = _samples("f1", 128, [1, 2, 3, 4, 5]) + _samples("f1", 256, [2, 2, 2, 2, 10])
    profiles = build_profiles(sample_table(samples), ladder, alpha=50)
    assert profiles["f1"].representative(128) == 3.0
    assert profiles["f1"].representative(256) == 2.0
    assert profiles["f1"].sample_count(128) == 5


def test_build_profiles_requires_every_ladder_cell():
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    with pytest.raises(MissingCell):
        build_profiles(sample_table(_samples("f1", 128, [1.0])), ladder, alpha=50)


def test_off_ladder_samples_are_ignored():
    ladder = MemoryLadder(values=(128,), cap_mb=None)
    samples = _samples("f1", 128, [1.0]) + _samples("f1", 999, [50.0])
    profiles = build_profiles(sample_table(samples), ladder, alpha=50)
    assert profiles["f1"].memories() == (128,)


# --- monotone repair ---------------------------------------------------------


def test_repair_applies_running_minimum():
    profile = make_profile("f1", {128: 4.5, 256: 2.3, 512: 2.5, 1024: 1.1})
    repaired = monotone_repair(profile)
    assert [repaired.representatives[m] for m in (128, 256, 512, 1024)] == [4.5, 2.3, 2.3, 1.1]


def test_repair_is_identity_on_monotone_profiles():
    profile = make_profile("f1", {128: 4.0, 256: 2.0, 512: 2.0})
    assert monotone_repair(profile).representatives == profile.representatives


def test_repair_keeps_flat_backend_bound_profiles():
    profile = make_profile("f1", {m: 0.3 for m in (128, 256, 512, 1024)})
    assert monotone_repair(profile).representatives == profile.representatives


def test_repair_is_idempotent_and_output_monotone():
    rng = random.Random(3)
    rungs = (128, 256, 512, 1024, 2048)
    for _ in range(25):
        reps = {m: rng.uniform(0.1, 5.0) for m in rungs}
        once = monotone_repair(make_profile("f1", reps))
        assert once.memories() == rungs
        for i, m in enumerate(rungs):  # running minimum of the raw values
            assert once.representatives[m] == min(reps[k] for k in rungs[: i + 1])
        twice = monotone_repair(once)
        assert twice.representatives == once.representatives


# --- select_alpha ------------------------------------------------------------


def _uniform_level_samples(graph, ladder, duration_of, k=8):
    """Rows of k aligned requests per uniform memory level with fixed
    durations."""
    samples = []
    for m in ladder.effective():
        for j in range(k):
            for f in graph.functions():
                samples.append((f, m, duration_of(f, m, j)))
    return samples


def test_identical_durations_tie_break_to_smallest_alpha():
    graph = generate_app(shape="demo3", seed=0).graph
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    samples = _uniform_level_samples(graph, ladder, lambda f, m, j: 128.0 / m)
    assert select_alpha(sample_table(samples), ladder, graph) == 50.0


def test_insufficient_samples_rejected():
    graph = generate_app(shape="demo3", seed=0).graph
    ladder = MemoryLadder(values=(128,), cap_mb=None)
    samples = _uniform_level_samples(graph, ladder, lambda f, m, j: 1.0, k=3)
    with pytest.raises(InsufficientSamples):
        select_alpha(sample_table(samples), ladder, graph)


def test_overflowing_squared_error_scores_alpha_as_infinite():
    """Durations this far apart square past the float range at every
    candidate: each scores inf, so the first candidate stands, and nothing
    raises a bare OverflowError."""
    graph = CallGraph(FunctionNode("f1"))
    ladder = MemoryLadder(values=(128,), cap_mb=None)
    samples = _samples("f1", 128, (1e160, 1.0, 2.0, 3e160, 5.0, 1e150))
    assert select_alpha(sample_table(samples), ladder, graph) == DEFAULT_ALPHA_CANDIDATES[0]


def test_misaligned_cells_rejected():
    graph = generate_app(shape="demo3", seed=0).graph
    ladder = MemoryLadder(values=(128,), cap_mb=None)
    samples = _uniform_level_samples(graph, ladder, lambda f, m, j: 1.0, k=5)
    samples.append(("f1", 128, 1.0))  # f1 now has one extra
    with pytest.raises(InsufficientSamples):
        select_alpha(sample_table(samples), ladder, graph)


def _oracle_alpha(samples, ladder, graph, seed):
    """Independent reimplementation: numpy percentiles + documented split."""
    functions = graph.functions()
    rungs = ladder.effective()
    cells = {}
    for function, memory_mb, duration_s in samples:
        cells.setdefault((function, memory_mb), []).append(duration_s)
    counts = {m: len(cells[(functions[0], m)]) for m in rungs}
    rng = random.Random(seed)
    splits = {}
    for m in rungs:
        idx = list(range(counts[m]))
        rng.shuffle(idx)
        n_holdout = min(counts[m] - 1, max(1, round(0.3 * counts[m])))
        splits[m] = (sorted(idx[n_holdout:]), sorted(idx[:n_holdout]))
    best, best_mse = None, math.inf
    for alpha in sorted(DEFAULT_ALPHA_CANDIDATES):
        total = 0.0
        for m in rungs:
            fit_idx, hold_idx = splits[m]
            fitted = {
                f: float(np.percentile([cells[(f, m)][i] for i in fit_idx], alpha))
                for f in functions
            }
            observed = [
                combine_times(graph, {f: cells[(f, m)][i] for f in functions})
                for i in hold_idx
            ]
            total += (combine_times(graph, fitted) - float(np.percentile(observed, alpha))) ** 2
        if total / len(rungs) < best_mse:
            best_mse = total / len(rungs)
            best = alpha
    return best


def _heavy_tail_samples(graph, ladder, data_seed, k=30):
    rng = random.Random(data_seed)
    samples = []
    for m in ladder.effective():
        for j in range(k):
            for f in graph.functions():
                base = 128.0 / m
                draw = base * rng.lognormvariate(0.0, 0.9)  # heavy right tail
                samples.append((f, m, draw))
    return samples


def test_heavy_tailed_cells_pick_a_high_alpha_matching_oracle():
    graph = generate_app(shape="demo3", seed=0).graph
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    samples = _heavy_tail_samples(graph, ladder, data_seed=13)
    expected = _oracle_alpha(samples, ladder, graph, seed=0)
    assert expected == 90.0  # fixture chosen so the oracle lands on 90
    assert select_alpha(sample_table(samples), ladder, graph, seed=0) == expected


@pytest.mark.parametrize("data_seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_select_alpha_agrees_with_oracle_on_random_data(data_seed):
    graph = generate_app(shape="demo3", seed=0).graph
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    samples = _heavy_tail_samples(graph, ladder, data_seed, k=12)
    assert select_alpha(sample_table(samples), ladder, graph, seed=3) == _oracle_alpha(
        samples, ladder, graph, seed=3
    )


def test_select_alpha_deterministic_given_seed():
    graph = generate_app(shape="demo3", seed=0).graph
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    samples = sample_table(_heavy_tail_samples(graph, ladder, data_seed=9))
    first = select_alpha(samples, ladder, graph, seed=42)
    assert all(
        select_alpha(samples, ladder, graph, seed=42) == first for _ in range(3)
    )


def _fitted(fit, *args, **kwargs):
    """What ``fit`` returns, as its repr, or its error's class and message."""
    try:
        return repr(fit(*args, **kwargs))
    except FaastuneError as exc:
        return type(exc), str(exc)


@given(st.integers(1, 5), st.integers(0, 2**31), st.data())
@settings(max_examples=120, deadline=None)
def test_fitting_matches_the_reference(n_functions, app_seed, data):
    """Profiling-shaped sample sets: 4-60 requests per rung, durations that
    tie often or have tails of random weight, and samples off the ladder
    mixed in; now and then a cell one request short or long, a rung with
    too few requests, a missing cell or a function the graph does not hold.
    ``select_alpha`` and ``build_profiles`` must give the reference's alpha
    and profiles, or its error."""
    graph = generate_app(n_functions=n_functions, shape="random", seed=app_seed).graph
    functions = list(graph.functions())
    if data.draw(st.booleans()):
        functions.append("zz-unmodeled")
    rungs = tuple(sorted(data.draw(st.lists(st.sampled_from(DEFAULT_MEMORY_MB), min_size=1,
                                            max_size=4, unique=True))))
    ladder = MemoryLadder(values=rungs, cap_mb=None)
    off_ladder = [m for m in (64, *DEFAULT_MEMORY_MB, 4096) if m not in rungs]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    tails = {f: rng.choice((0.0, 0.2, 0.8, 1.5)) for f in functions}

    def duration(function: str) -> float:
        if not tails[function] or rng.random() < 0.3:
            return rng.choice((0.0, 0.25, 1.0, 2.5))
        return rng.lognormvariate(0.0, tails[function])

    edit = data.draw(st.sampled_from(("none", "none", "none", "extra", "drop", "drop-cell", "short")))
    samples = []
    for memory_mb in rungs:
        k = data.draw(st.integers(4, 60), label=f"requests at {memory_mb}")
        if edit == "short" and memory_mb == rungs[-1]:
            k = data.draw(st.integers(1, 3))
        for _ in range(k):
            for function in functions:
                samples.append((function, memory_mb, duration(function)))
                if rng.random() < 0.05:
                    samples.append((function, rng.choice(off_ladder), duration(function)))
    if edit == "extra":
        samples.append((rng.choice(functions), rng.choice(rungs), 1.0))
    elif edit == "drop":
        del samples[rng.randrange(len(samples))]
    elif edit == "drop-cell":
        cell = (rng.choice(functions), rng.choice(rungs))
        samples = [s for s in samples if s[:2] != cell]
    if data.draw(st.booleans()):
        rng.shuffle(samples)

    seed = data.draw(st.integers(0, 2**16))
    table = sample_table(samples)
    alpha = _fitted(select_alpha, table, ladder, graph, seed=seed)
    assert alpha == _fitted(reference_select_alpha, samples, ladder, graph, seed=seed)
    for pct in (*DEFAULT_ALPHA_CANDIDATES, data.draw(st.floats(0, 100))):
        assert _fitted(build_profiles, table, ladder, pct) == _fitted(
            reference_build_profiles, samples, ladder, pct
        )


# --- serialization -----------------------------------------------------------


def test_profile_csv_round_trip(tmp_path):
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    samples = _samples("f1", 128, [1.37, 2.21, 3.9]) + _samples("f1", 256, [0.7, 0.9, 1.1])
    profiles = build_profiles(sample_table(samples), ladder, alpha=90)
    path = tmp_path / "profiles.csv"
    save_profiles(profiles, path)
    loaded = load_profiles(path)
    assert loaded.keys() == profiles.keys()
    assert loaded["f1"].alpha == 90
    assert loaded["f1"].representatives == profiles["f1"].representatives
    assert loaded["f1"].sample_count(128) == 3
    assert loaded == profiles


def test_a_profile_built_without_counts_round_trips(tmp_path):
    """It writes a count of 0 in each row, which reads back as no counts."""
    profiles = {"f1": make_profile("f1", {128: 1.0, 256: 0.5})}
    path = tmp_path / "profiles.csv"
    save_profiles(profiles, path)
    assert "f1,128,95.0,1.0,0" in path.read_text()
    assert load_profiles(path) == profiles


def test_save_refuses_a_profile_keyed_by_another_name(tmp_path):
    path = tmp_path / "profiles.csv"
    with pytest.raises(ValueError, match="^profile of 'b' is keyed 'a'$"):
        save_profiles({"b": make_profile("b", {128: 1.0}), "a": make_profile("b", {128: 2.0})}, path)
    assert not path.exists()


#: Representatives at the edges of the float range, drawn as often as any float:
#: ints beyond it and ints a float cannot hold exactly, which load back as the
#: float they round to, among them.
_EDGE_SECONDS = (-0.0, 0.0, 5e-324, 1.7e308, math.nan, math.inf, -math.inf, -1.0,
                 2**53 + 1, 2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400, -10**400,
                 "1.5", None)


@st.composite
def _profile_fields(draw):
    """Keyword arguments of a few profiles, keyed by function name, with
    representatives drawn from all floats, ints and bools, alphas from all
    floats, ints and bools, memory sizes from ints, bools and floats, and
    counts from ints and bools: at every memory size, at all but one, at
    one more, or none."""
    fields = {}
    for name in draw(st.lists(st.sampled_from(["f1", "f 2", "f,3", 'f"4']), min_size=1,
                              unique=True)):
        memory = st.one_of(st.integers(1, 2**40), st.integers(-3, 0), st.booleans(),
                           st.sampled_from((128.0, 0.5)))
        memories = draw(st.lists(memory, min_size=1, max_size=4, unique=True))
        seconds = st.one_of(st.floats(), st.sampled_from(_EDGE_SECONDS), st.booleans(),
                            st.integers())
        representatives = {m: draw(seconds) for m in memories}
        counted = list(representatives)
        keys = draw(st.sampled_from(("every", "missing", "extra", "none")))
        if keys == "missing":
            del counted[draw(st.integers(0, len(counted) - 1))]
        elif keys == "extra":
            counted.append(draw(memory.filter(lambda m: m not in representatives)))
        elif keys == "none":
            counted = []
        count = st.one_of(st.integers(0, 10**9), st.just(0), st.integers(-3, -1), st.booleans())
        fields[name] = dict(
            function=name,
            alpha=draw(st.one_of(st.floats(0, 100), st.floats(), st.integers(-5, 200),
                                 st.booleans())),
            representatives=representatives,
            sample_counts={m: draw(count) for m in counted},
        )
    return fields


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _readable_seconds(value) -> bool:
    """Whether ``value`` is an int or float that is finite and non-negative
    as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return 0 <= float(value) < math.inf
    except OverflowError:
        return False


def _loadable(kwargs) -> bool:
    """Whether ``load_profiles`` would read back every row of these fields."""
    alpha = kwargs["alpha"]
    return (
        isinstance(alpha, (int, float)) and not isinstance(alpha, bool) and 0 <= alpha <= 100
        and all(_is_int(m) and m > 0 for m in kwargs["representatives"])
        and all(map(_readable_seconds, kwargs["representatives"].values()))
        and (not kwargs["sample_counts"]
             or kwargs["sample_counts"].keys() == kwargs["representatives"].keys())
        and all(_is_int(n) and n >= 0 for n in kwargs["sample_counts"].values())
    )


@given(_profile_fields())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_profile_either_fails_to_build_or_round_trips_through_csv(tmp_path, fields):
    """No profile holds a value its own file cannot carry: building one
    raises ValueError exactly when a field breaks a rule ``load_profiles``
    reads by (an alpha outside [0, 100], a memory size that is not a
    positive integer, counts at other memory sizes than the
    representatives, a representative that is not an int or float, or is
    NaN, infinite, negative or beyond the float range, a count that is not
    a non-negative integer), and otherwise ``load_profiles`` gives back an
    equal table, counts included, down to the sign of a zero."""
    bad = not all(map(_loadable, fields.values()))
    try:
        profiles = {name: FunctionProfile(**kwargs) for name, kwargs in fields.items()}
    except ValueError:
        assert bad
        return
    assert not bad
    path = tmp_path / "profiles.csv"
    save_profiles(profiles, path)
    loaded = load_profiles(path)
    assert loaded == profiles

    def bits(table):
        return {name: {m: s.hex() for m, s in p.representatives.items()} for name, p in table.items()}

    assert bits(loaded) == bits(profiles)


_HEADER = "function,memory_mb,alpha,representative_s,sample_count\n"


@pytest.mark.parametrize("table,line,message", [
    ("function,memory_mb,alpha\nf1,128,95\n", 1,
     "profile file missing columns: ['representative_s', 'sample_count']"),
    (_HEADER + "f1,128,50,1.0,3\n\nf1,256,90,0.5,3\n", 4, "inconsistent alpha for function 'f1'"),
    (_HEADER + "f1,abc,50,1.0,3\n", 2, "memory_mb must be a positive integer, got 'abc'"),
    (_HEADER + "f1,0,50,1.0,3\n", 2, "memory_mb must be a positive integer, got '0'"),
    (_HEADER + "f1,128,50,1.0,3\nf1,-128,50,1.0,3\n", 3,
     "memory_mb must be a positive integer, got '-128'"),
    (_HEADER + "f1,128,abc,1.0,3\n", 2, "alpha must be a number in [0, 100], got 'abc'"),
    (_HEADER + "f1,128,nan,1.0,3\n", 2, "alpha must be a number in [0, 100], got 'nan'"),
    (_HEADER + "f1,128,150,1.0,3\n", 2, "alpha must be a number in [0, 100], got '150'"),
    (_HEADER + "f1,128,50,abc,3\n", 2, "representative_s must be finite and non-negative, got 'abc'"),
    (_HEADER + "f1,128,50,1.0,abc\n", 2, "sample_count must be a non-negative integer, got 'abc'"),
    (_HEADER + ",128,50,1.0,3\n", 2, "empty function name"),
], ids=["missing-columns", "inconsistent-alpha", "text-memory", "zero-memory", "negative-memory",
        "text-alpha", "nan-alpha", "alpha-150", "text-representative", "text-sample-count",
        "empty-function"])
def test_load_profiles_errors_name_the_file_and_line(tmp_path, table, line, message):
    path = tmp_path / "profiles.csv"
    path.write_text(table)
    with pytest.raises(ValueError) as raised:
        load_profiles(path)
    assert str(raised.value) == f"{path}: line {line}: {message}"
