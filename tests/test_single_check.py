"""One weight check per bench row: `run_bench` checks a row's list once, at
`StreamStats.from_weights`, and hands the solve the list's checked chunks
(`WeightChunks.of_checked`) and the oracle the checked maximum. Checked
here: those chunks against `_drive`'s own chunking, each record against the
simple path that checks the list again at every stage, the one check still
refusing a bad list, and the count of weights the checks scan (the CLI
oracle, which takes the parser's list as checked, is in test_cli.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampart import (
    PART_MODE,
    PARTB_MODE,
    DeclaredBoundError,
    GeneratorSpec,
    KnowledgeProfile,
    ProbeInstance,
    StreamStats,
    opt_bottleneck_binsearch,
    run_bench,
)
from streampart import bench
from streampart.core import B, WeightChunks
from streampart.feasibility import _chunked, _drive, _Walker, checked_args
from streampart.schedulers import SOLVERS, UnknownPartSolver, solve_tagged

from helpers import TIER1, counted_checked_max

LENGTHS = (0, 1, B - 1, B, B + 1, 2 * B + 3)


def walker_state(walker) -> dict:
    if isinstance(walker, ProbeInstance):
        return {name: getattr(walker, name) for name in _Walker.__slots__}
    return walker.result().to_json_dict()


def walkers(weights: list[int]) -> list:
    """Probes that die early, late and never, and the unknown-knowledge
    walker."""
    heaviest = max(weights, default=0)
    bounds = {heaviest, heaviest + sum(weights) // 7, sum(weights)}
    return [*(ProbeInstance(bound, 3) for bound in sorted(bounds)), UnknownPartSolver(4)]


@pytest.mark.parametrize("length", (0, 1, B - 1, B, B + 1, 3 * B))
def test_checked_chunks_are_drives_own_chunks(length):
    weights = random.Random(length).choices(range(1001), k=length)
    chunks = list(WeightChunks.of_checked(weights).chunks)
    assert chunks == list(_chunked(iter(weights)))
    assert all(0 < len(chunk) <= B for chunk in chunks)
    assert list(WeightChunks.of_checked(weights)) == weights

    fast, simple = walkers(weights), walkers(weights)
    assert (_drive(WeightChunks.of_checked(weights), fast, 1000)
            == _drive(iter(weights), simple, 1000)
            == (length, sum(weights), max(weights, default=0)))
    assert list(map(walker_state, fast)) == list(map(walker_state, simple))


@pytest.mark.parametrize("length", (1, B - 1, B, B + 1, 3 * B))
def test_checked_chunks_keep_the_declared_maximum(length):
    weights = random.Random(length).choices(range(1001), k=length)
    weights[length // 2] = 1001
    message = "^element 1001 exceeds declared maximum weight 1000$"
    for stream in (WeightChunks.of_checked(weights), iter(weights)):
        with pytest.raises(DeclaredBoundError, match=message):
            _drive(stream, walkers(weights), 1000)


def reference_record(row: dict) -> tuple:
    """What `run_bench` reported before it checked a row once: the solve
    over `iter(weights)` and the public oracle, each checking the list."""
    weights = GeneratorSpec(**row["generator"]).make()
    try:
        epsilon = checked_args(row["p"], row["mode"], row["epsilon"])
        stats = StreamStats.from_weights(weights)
        profile = KnowledgeProfile(max_weight=stats.max_weight, length=stats.length,
                                   total_weight=stats.total_weight)
        result = solve_tagged(row["algorithm"], iter(weights), row["p"], epsilon, profile,
                              mode=row["mode"])
        optimum = opt_bottleneck_binsearch(weights, row["p"]).optimum
    except (ValueError, RuntimeError) as exc:
        return None, None, str(exc)
    return result.to_json_dict(), optimum, None


@pytest.mark.parametrize("mode", (PART_MODE, PARTB_MODE))
@pytest.mark.parametrize("tag", list(SOLVERS))
@settings(TIER1, max_examples=30)
@given(p=st.sampled_from((2, 3, 64)), length=st.sampled_from(LENGTHS),
       top=st.integers(0, 1000), seed=st.integers(0, 2**16),
       epsilon=st.sampled_from(("1/100", "1/10", "1")))
def test_run_bench_matches_the_simple_path(tag, mode, p, length, top, seed, epsilon):
    row = {"generator": {"kind": "uniform", "n": length, "m": top, "seed": seed},
           "algorithm": tag, "mode": mode, "p": p, "epsilon": epsilon}
    [record] = run_bench([row])
    payload = None if record.result is None else record.result.to_json_dict()
    assert (payload, record.oracle_optimum, record.error) == reference_record(row)


@pytest.mark.parametrize("bad, shown", [
    (-1, "-1"), (True, "True"), (2.0, "2.0"), (-10**5000, "-1" + "0" * 5000),
], ids=["negative", "bool", "float", "long-negative"])
def test_the_one_check_guards_the_row(monkeypatch, bad, shown):
    monkeypatch.setattr(GeneratorSpec, "make", lambda self: [1, bad])
    refused = []
    from_weights = StreamStats.from_weights

    def spied(weights):
        try:
            return from_weights(weights)
        except ValueError as exc:
            refused.append(str(exc))
            raise

    ran = []
    monkeypatch.setattr(StreamStats, "from_weights", spied)
    monkeypatch.setattr(bench, "solve_tagged", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setattr(bench, "_binsearch_optimum", lambda *args: ran.append(args))
    row = {"generator": {"kind": "uniform", "n": 2, "m": 2, "seed": 0},
           "algorithm": "known-m", "mode": PART_MODE, "p": 2, "epsilon": "1/10"}
    [record] = run_bench([row])
    message = f"weights must be non-negative integers, got {shown}"
    assert record.error == message
    assert refused == [message]
    assert ran == []
    assert record.result is None and record.oracle_optimum is None


def test_run_bench_scans_each_weight_once(monkeypatch):
    calls = counted_checked_max(monkeypatch)
    length = 2 * B + 3
    for tag in SOLVERS:
        for mode in (PART_MODE, PARTB_MODE):
            row = {"generator": {"kind": "uniform", "n": length, "m": 1000, "seed": 5},
                   "algorithm": tag, "mode": mode, "p": 3, "epsilon": "1/10"}
            [record] = run_bench([row])
            assert record.error is None
            assert calls == [length]
            calls.clear()
