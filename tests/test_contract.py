"""Input contract of every public entry point: bad input is a ValueError
where it enters, and no float or bool ever decides an answer."""

from fractions import Fraction

import pytest

from streampart import (
    KnowledgeProfile,
    ProbeExtInstance,
    ProbeInstance,
    dispatch,
    opt_bottleneck_binsearch,
    opt_bottleneck_dp,
    probe_ext_run,
    probe_run,
    realize_partition,
    solve_known_max,
    solve_known_max_length,
    solve_known_total,
    solve_unknown_part,
    solve_unknown_partb,
)
from streampart.schedulers import UnknownPartSolver, solve_tagged

# entry points that take a whole stream and a block count
STREAM_ENTRY_POINTS = {
    "probe_run": lambda weights, p: probe_run(weights, 10, p),
    "probe_ext_run": lambda weights, p: probe_ext_run(weights, 10, p),
    "opt_bottleneck_binsearch": opt_bottleneck_binsearch,
    "opt_bottleneck_dp": opt_bottleneck_dp,
    "realize_partition": lambda weights, p: realize_partition(weights, p, 10),
}

SOLVER_CALLS = {
    "solve_known_total": lambda p: solve_known_total(iter([1, 2, 1]), p, "1/2", 4),
    "solve_known_max_length": lambda p: solve_known_max_length(iter([1, 2, 1]), p, "1/2", 2, 3),
    "solve_known_max": lambda p: solve_known_max(iter([1, 2, 1]), p, "1/64", 2),
    "solve_unknown_part": lambda p: solve_unknown_part(iter([1, 2, 1]), p),
    "solve_unknown_partb": lambda p: solve_unknown_partb(iter([1, 2, 1]), p),
    "dispatch": lambda p: dispatch(iter([1, 2, 1]), p, None, KnowledgeProfile()),
}

BLOCK_COUNT_TAKERS = {
    **{name: (lambda p, run=run: run([1, 2, 1], p)) for name, run in STREAM_ENTRY_POINTS.items()},
    **SOLVER_CALLS,
    "ProbeInstance": lambda p: ProbeInstance(10, p),
    "ProbeExtInstance": lambda p: ProbeExtInstance(10, p),
    "UnknownPartSolver": UnknownPartSolver,
}


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), True])
@pytest.mark.parametrize("name", STREAM_ENTRY_POINTS)
def test_non_integer_weights_rejected(name, bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        STREAM_ENTRY_POINTS[name]([1, bad, 1], 2)


@pytest.mark.parametrize("bad", [2.0, "2", True])
@pytest.mark.parametrize("name", BLOCK_COUNT_TAKERS)
def test_non_int_block_count_rejected(name, bad):
    with pytest.raises(ValueError, match="block count"):
        BLOCK_COUNT_TAKERS[name](bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ProbeInstance(2.5, 2),
        lambda: probe_run([1, 2], 2.5, 2),
        lambda: realize_partition([1, 2], 2, 2.5),
        lambda: ProbeExtInstance(2, 2, 0.5),
        lambda: probe_ext_run([1, 2], 2, 2, 0.5),
        lambda: probe_ext_run([1, 2], 2.5, 2),
    ],
    ids=["ProbeInstance", "probe_run", "realize_partition", "ProbeExtInstance", "probe_ext_run",
         "probe_ext_run max"],
)
def test_float_bound_slack_and_max_rejected(call):
    with pytest.raises(ValueError, match=r'"1/10".*Fraction'):
        call()


@pytest.mark.parametrize("bad", [2.0, True])
@pytest.mark.parametrize(
    "declare",
    [
        lambda bad: solve_known_total(iter([1, 1]), 2, "1/2", bad),
        lambda bad: solve_known_max_length(iter([1, 1]), 2, "1/2", bad, 2),
        lambda bad: solve_known_max_length(iter([1, 1]), 2, "1/2", 1, bad),
        lambda bad: solve_known_max(iter([1, 1]), 2, "1/64", bad),
        lambda bad: solve_tagged("known-S", iter([1, 1]), 2, "1/2",
                                 KnowledgeProfile(total_weight=bad)),
        lambda bad: solve_tagged("known-mn", iter([1, 1]), 2, "1/2",
                                 KnowledgeProfile(max_weight=bad, length=2)),
        lambda bad: solve_tagged("known-mn", iter([1, 1]), 2, "1/2",
                                 KnowledgeProfile(max_weight=1, length=bad)),
        lambda bad: solve_tagged("known-m", iter([1, 1]), 2, "1/64",
                                 KnowledgeProfile(max_weight=bad)),
    ],
    ids=["known-S total", "known-mn max", "known-mn length", "known-m max",
         "tagged known-S total", "tagged known-mn max", "tagged known-mn length",
         "tagged known-m max"],
)
def test_non_int_declared_values_rejected(declare, bad):
    with pytest.raises(ValueError, match="must be a non-negative int"):
        declare(bad)
