"""Input contract of every public entry point: bad input is a ValueError
where it enters, and no float or bool ever decides an answer."""

from fractions import Fraction

import pytest

from streampart import (
    DeclaredBoundError,
    InfeasibleBoundError,
    KnowledgeMismatchError,
    KnowledgeProfile,
    ProbeExtInstance,
    ProbeInstance,
    StreamStats,
    approx_factor_bound,
    block_weights,
    bottleneck_of,
    dispatch,
    gen_index_hard,
    gen_yz_hard,
    growth_steps,
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
    validate_partitioning,
    weight_lower_bound,
)
from streampart.feasibility import B, pad_separators
from streampart.schedulers import UnknownPartSolver, solve_tagged


def feed_each(weights, p):
    """The unknown-knowledge solver fed one weight at a time, directly."""
    solver = UnknownPartSolver(p)
    for weight in weights:
        solver.feed(weight)
    return solver.result()


# entry points that take a whole stream and a block count
COUNTED_STREAM_ENTRY_POINTS = {
    "probe_run": lambda weights, p: probe_run(weights, 10, p),
    "probe_ext_run": lambda weights, p: probe_ext_run(weights, 10, p),
    "opt_bottleneck_binsearch": opt_bottleneck_binsearch,
    "opt_bottleneck_dp": opt_bottleneck_dp,
    "realize_partition": lambda weights, p: realize_partition(weights, p, 10),
    "UnknownPartSolver.feed": feed_each,
}

# ... and every entry point that takes a whole list of weights: the helpers
# below take no block count (p only shapes the separators)
STREAM_ENTRY_POINTS = {
    **COUNTED_STREAM_ENTRY_POINTS,
    "StreamStats.from_weights": lambda weights, p: StreamStats.from_weights(weights),
    "block_weights": lambda weights, p: block_weights(weights, pad_separators((), p, len(weights))),
    "bottleneck_of": lambda weights, p: bottleneck_of(weights, pad_separators((), p, len(weights))),
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
    **{name: (lambda p, run=run: run([1, 2, 1], p))
       for name, run in COUNTED_STREAM_ENTRY_POINTS.items()},
    **SOLVER_CALLS,
    "ProbeInstance": lambda p: ProbeInstance(10, p),
    "ProbeExtInstance": lambda p: ProbeExtInstance(10, p),
    "UnknownPartSolver": UnknownPartSolver,
    "weight_lower_bound": lambda p: weight_lower_bound(1, p, 2),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), True, -1])
@pytest.mark.parametrize("name", STREAM_ENTRY_POINTS)
def test_non_integer_weights_rejected(name, bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        STREAM_ENTRY_POINTS[name]([1, bad, 1], 2)


@pytest.mark.parametrize("bad", [2.0, "2", True])
@pytest.mark.parametrize("name", BLOCK_COUNT_TAKERS)
def test_non_int_block_count_rejected(name, bad):
    with pytest.raises(ValueError, match="block count"):
        BLOCK_COUNT_TAKERS[name](bad)


# entry points that take an exact bound, slack or maximum
EXACT_VALUE_TAKERS = {
    "ProbeInstance": lambda bad: ProbeInstance(bad, 2),
    "probe_run": lambda bad: probe_run([1, 2], bad, 2),
    "realize_partition": lambda bad: realize_partition([1, 2], 2, bad),
    "ProbeExtInstance": lambda bad: ProbeExtInstance(2, 2, bad),
    "probe_ext_run": lambda bad: probe_ext_run([1, 2], 2, 2, bad),
    "probe_ext_run max": lambda bad: probe_ext_run([1, 2], bad, 2),
}


@pytest.mark.parametrize(
    "name, bad",
    [pytest.param(name, bad, id=name if bad == 2.5 else f"{name}-{bad}")
     for name in EXACT_VALUE_TAKERS for bad in (2.5, True)],
)
def test_float_bound_slack_and_max_rejected(name, bad):
    with pytest.raises(ValueError, match=r'"1/10".*Fraction'):
        EXACT_VALUE_TAKERS[name](bad)


@pytest.mark.parametrize("name", EXACT_VALUE_TAKERS)
def test_zero_denominator_rejected(name):
    # Fraction("1/0") raises ZeroDivisionError, which no caller expects
    with pytest.raises(ValueError, match="^'1/0' has a zero denominator$"):
        EXACT_VALUE_TAKERS[name]("1/0")


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


@pytest.mark.parametrize("bad", [1.5, True, Fraction(1)])
@pytest.mark.parametrize("make", [lambda: ProbeInstance(3, 2), lambda: ProbeExtInstance(3, 2)],
                         ids=["ProbeInstance", "ProbeExtInstance"])
def test_direct_feed_checks_weights_like_a_stream(make, bad):
    instance = make()
    with pytest.raises(ValueError, match="non-negative integers"):
        instance.feed(bad)
    assert (instance.block_weight, instance.next_index) == (0, 1)


def test_unknown_part_feed_rejects_a_negative_weight():
    solver = UnknownPartSolver(2)
    solver.feed(4)
    with pytest.raises(ValueError, match="got -3"):
        solver.feed(-3)
    # the refused weight left no trace
    assert (solver.elements_read, solver.total, solver.max_weight) == (1, 4, 4)
    assert solver.separators == [1, 2, 2]


# a full first chunk, so that the bad elements below sit in the second
FULL_CHUNK = [1] * B


@pytest.mark.parametrize("head", [[], FULL_CHUNK], ids=["first-chunk", "second-chunk"])
def test_first_bad_element_raises_within_a_chunk(head):
    # above the declared maximum, then negative: the maximum is reported
    with pytest.raises(DeclaredBoundError, match="element 7 exceeds"):
        solve_known_max(iter(head + [1, 7, -1]), 2, "1/64", 5)
    with pytest.raises(DeclaredBoundError, match="element 7 exceeds"):
        probe_ext_run(head + [1, 7, -1], 5, 2)
    # negative, then above the maximum: the negative weight is reported
    with pytest.raises(ValueError, match="got -1") as raised:
        solve_known_max(iter(head + [1, -1, 7]), 2, "1/64", 5)
    assert not isinstance(raised.value, DeclaredBoundError)
    with pytest.raises(ValueError, match="got 1.5"):
        probe_run(head + [2, 1.5, -1], 10, 2)


def probe_fed_one():
    """A probe that has taken one element."""
    probe = ProbeInstance(5, 2)
    probe.feed(1)
    return probe


# a value past CPython's 4300-digit limit for int <-> str conversion
BIG = 10**5000
DIGITS = "1" + "0" * 5000
NINES = "9" * 5000


# each call, with the exception and the whole message it must raise; every
# value in a message is printed exactly, however long
LONG_VALUE_MESSAGES = {
    "KnowledgeProfile": (lambda: KnowledgeProfile(max_weight=-BIG), ValueError,
                         f"declared max_weight must be a non-negative int, got -{DIGITS}"),
    "ProbeInstance": (lambda: ProbeInstance(-BIG, 2), ValueError,
                      f"bound must be non-negative, got -{DIGITS}"),
    "ProbeExtInstance max": (lambda: ProbeExtInstance(-BIG, 2), ValueError,
                             f"maximum weight must be non-negative, got -{DIGITS}"),
    "ProbeExtInstance slack": (lambda: ProbeExtInstance(1, 2, Fraction(-BIG, 3)), ValueError,
                               f"slack must be non-negative, got -{DIGITS}/3"),
    "probe_run blocks": (lambda: probe_run([1], 1, -BIG), ValueError,
                         f"block count must be at least 2, got -{DIGITS}"),
    "solve_known_total epsilon": (lambda: solve_known_total([1], 2, Fraction(-BIG, 7), 1),
                                  ValueError, f"epsilon must be positive, got -{DIGITS}/7"),
    "StreamStats": (lambda: StreamStats(length=1, max_weight=BIG, total_weight=1), ValueError,
                    f"max weight {DIGITS} exceeds total weight 1"),
    "realize_partition": (lambda: realize_partition([BIG, BIG], 2, BIG - 1),
                          InfeasibleBoundError,
                          f"bound {NINES} admits no partitioning into 2 blocks "
                          f"(element-exceeds-threshold)"),
    "probe_ext_run": (lambda: probe_ext_run([BIG], Fraction(BIG - 1), 2), DeclaredBoundError,
                      f"element {DIGITS} exceeds declared maximum weight {NINES}"),
    "opt_bottleneck_dp": (lambda: opt_bottleneck_dp([1, -BIG], 2), ValueError,
                          f"weights must be non-negative integers, got -{DIGITS}"),
    "gen_yz_hard length": (lambda: gen_yz_hard(10, BIG, 1), ValueError,
                           f"length must be at least 4*pairs - 2 = 3{'9' * 4999}8, got 10"),
    "gen_yz_hard bob index": (lambda: gen_yz_hard(4 * BIG, BIG, BIG + 1), ValueError,
                              f"bob index must lie in [1, {DIGITS}], got {'1' + '0' * 4999}1"),
    "gen_index_hard": (lambda: gen_index_hard("01", BIG), ValueError,
                       f"index must lie in [1, 2], got {DIGITS}"),
    # the closed-form bounds check their arguments by the escalator's rules
    "weight_lower_bound max": (lambda: weight_lower_bound(1, 2, -BIG), ValueError,
                               f"maximum weight must be non-negative, got -{DIGITS}"),
    "weight_lower_bound merges": (lambda: weight_lower_bound(1.5, 2, 3), ValueError,
                                  "merges must be a non-negative int, got 1.5"),
    "weight_lower_bound bool max": (lambda: weight_lower_bound(1, 2, True), ValueError,
                                    'exact values are given as an int, a string such as "1/10" '
                                    "or a Fraction; got True"),
    "weight_lower_bound one block": (lambda: weight_lower_bound(1, 1, 3), ValueError,
                                     "block count must be at least 2, got 1"),
    "weight_lower_bound slack": (lambda: weight_lower_bound(1, 2, 3, Fraction(-BIG, 3)),
                                 ValueError, f"slack must be non-negative, got -{DIGITS}/3"),
    "approx_factor_bound merges": (lambda: approx_factor_bound(-BIG), ValueError,
                                   f"merges must be a non-negative int, got -{DIGITS}"),
    "approx_factor_bound slack": (lambda: approx_factor_bound(3, -1), ValueError,
                                  "slack must be non-negative, got -1"),
    "ProbeInstance.finish": (lambda: probe_fed_one().finish(BIG), ValueError,
                             f"stream length mismatch: fed 1 elements, caller says {DIGITS}"),
    "growth_steps": (lambda: growth_steps(Fraction(BIG, BIG + 1), 5), ValueError,
                     f"growth ratio must exceed 1, got {DIGITS}/1{'0' * 4999}1"),
    "solve_known_max element": (lambda: solve_known_max([BIG], 2, "1/64", 1), DeclaredBoundError,
                                f"element {DIGITS} exceeds declared maximum weight 1"),
    "solve_known_total sum": (lambda: solve_known_total([BIG], 2, "1/10", 1),
                              KnowledgeMismatchError,
                              f"declared total weight 1 but the stream sums to {DIGITS}"),
    "probe_run weight": (lambda: probe_run([1, -BIG], 5, 2), ValueError,
                         f"weights must be non-negative integers, got -{DIGITS}"),
}


@pytest.mark.parametrize("name", LONG_VALUE_MESSAGES)
def test_messages_print_long_values_exactly(name):
    call, error, message = LONG_VALUE_MESSAGES[name]
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is error
    assert str(raised.value) == message


# a block count whose separator tuple could not be indexed is refused where
# it enters in part mode (expected result None); partb keeps no separators
# and takes it
HUGE_BLOCK_COUNT_CALLS = {
    "probe_run": (lambda: probe_run([1], 5, BIG), None),
    "realize_partition": (lambda: realize_partition([1], BIG, 0), None),
    "solve_unknown_part": (lambda: solve_unknown_part([1], BIG), None),
    "probe_ext_run": (lambda: probe_ext_run([1], 1, BIG), None),
    "solve_unknown_partb": (lambda: solve_unknown_partb([1], BIG).bottleneck, 2),
    "probe_run partb": (lambda: probe_run([1], 5, BIG, mode="partb").success, True),
}


@pytest.mark.parametrize("name", HUGE_BLOCK_COUNT_CALLS)
def test_block_count_too_large_for_separators(name):
    call, expected = HUGE_BLOCK_COUNT_CALLS[name]
    if expected is not None:
        assert call() == expected
        return
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError
    assert str(raised.value) == f"block count {DIGITS} is too large to index its separators"


def test_validate_partitioning_block_count_rule():
    # the rule `checked_args` applies, with the count printed exactly
    assert (validate_partitioning(1, -BIG, [1, 2])
            == f"block count must be at least 2, got -{DIGITS}")
    assert validate_partitioning(1, True, [1, 2]) == "block count must be an int, got True"
    assert validate_partitioning(1, 1, [1, 2]) == "block count must be at least 2, got 1"
