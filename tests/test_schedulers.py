import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampart import (
    DeclaredBoundError,
    KnowledgeMismatchError,
    KnowledgeProfile,
    WARN_EPSILON_RANGE,
    bottleneck_of,
    dispatch,
    growth_steps,
    opt_bottleneck_binsearch,
    solve_known_max,
    solve_known_max_length,
    solve_known_total,
    solve_unknown_part,
    solve_unknown_partb,
)
from streampart import feasibility, probe_ext, schedulers
from streampart.core import floor_fraction, int_text
from streampart.feasibility import B, ProbeInstance, _Walker, sandwich
from streampart.schedulers import GROWTH_POWER_BITS, UnknownPartSolver, _Race
from helpers import CountingStream, random_stream, reference_race


def test_growth_steps_exact():
    assert growth_steps(Fraction(3, 2), 1) == 0
    assert growth_steps(Fraction(3, 2), 2) == 2
    assert growth_steps(2, 8) == 3
    assert growth_steps(2, 9) == 4
    # near-boundary case that a float log would get wrong either way:
    # (129/128)^89 < 2 <= (129/128)^90
    assert growth_steps(Fraction(129, 128), 2) == 90
    with pytest.raises(ValueError):
        growth_steps(1, 5)


def stepped_growth(ratio: Fraction, target: Fraction) -> int:
    """The smallest c with ratio**c >= target, one step at a time, with the
    power kept as an unreduced numerator and denominator."""
    steps, num, den = 0, 1, 1
    while num * target.denominator < target.numerator * den:
        num *= ratio.numerator
        den *= ratio.denominator
        steps += 1
    return steps


# a numerator and denominator past CPython's 4300-digit limit for int(str)
LONG = 10**5000


@st.composite
def growth_cases(draw):
    """A ratio > 1 and a target at most ratio**k, for a k kept small enough
    to step to: targets <= 1, ratio powers exactly, targets just above the
    power below (k - 1) and targets between the two, each also with ratios
    of more than 4300 digits."""
    long = draw(st.booleans())
    if draw(st.booleans()):  # from 1 + 1/10**4 to 2
        excess = Fraction(draw(st.integers(1, 10**4)), 10**4)
        steps = st.integers(0, 8 if long else 400)
    else:  # from 2 to 10**6
        excess = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))) + 1
        steps = st.integers(0, 4 if long else 60)
    if long:
        excess += Fraction(draw(st.integers(1, 10**6)), LONG + draw(st.integers(1, 10**6)))
    ratio = 1 + excess
    kind = draw(st.sampled_from(("at most 1", "power", "just above", "between")))
    if kind == "at most 1":
        return ratio, draw(st.fractions(max_value=1, max_denominator=10**6)) - (
            Fraction(1, LONG) if long else 0)
    k = draw(steps)
    power, below = ratio**k, ratio ** (k - 1)
    if kind == "power":
        return ratio, power
    if kind == "just above":
        return ratio, below + Fraction(1, LONG if long else 10**30)
    # from ratio**(k-1) up to ratio**k
    share = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**9))
    return ratio, power - (power - below) * share


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=growth_cases())
def test_growth_steps_matches_stepping(case):
    ratio, target = case
    assert growth_steps(ratio, target) == stepped_growth(ratio, target)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(ratio=st.one_of(st.fractions(max_value=1, max_denominator=10**9),
                       st.integers(-10, 1).map(Fraction),
                       st.integers(0, 10**6).map(lambda k: Fraction(LONG + k, LONG + k + 1))),
       target=st.fractions(max_denominator=10**6))
def test_growth_steps_refuses_ratios_at_most_one(ratio, target):
    with pytest.raises(ValueError) as raised:
        growth_steps(ratio, target)
    assert str(raised.value) == f"growth ratio must exceed 1, got {int_text(ratio)}"


def test_growth_steps_near_one():
    # log(ratio) underflows a float; the count still comes out exact
    ratio = 1 + Fraction(1, LONG)
    assert growth_steps(ratio, 1) == 0
    assert growth_steps(ratio, ratio) == 1
    assert growth_steps(ratio, ratio**3) == 3
    assert growth_steps(ratio, ratio**3 + Fraction(1, LONG**4)) == 4
    # about 7 * 10**4999 steps to reach 2: no list could index them
    with pytest.raises(ValueError) as raised:
        growth_steps(ratio, 2)
    assert str(raised.value) == (
        f"growth ratio {int_text(ratio)} needs too many steps to reach 2")


def test_growth_steps_refuses_powers_past_the_bit_limit():
    # the parts of 2 have at most 2 bits: a count just under half the limit
    # is computed (its powers are shifts), and one about 4% past it is
    # refused from the estimate before any power is built
    steps = GROWTH_POWER_BITS // 2 - 8
    assert growth_steps(2, 1 << steps) == steps
    ratio = 1 + Fraction(1, 1 << 21)  # 22 bits, about 1.58 * 10**6 steps to 17/8
    with pytest.raises(ValueError) as raised:
        growth_steps(ratio, Fraction(17, 8))
    assert str(raised.value) == (
        f"growth ratio {(1 << 21) + 1}/{1 << 21} needs too many steps to reach 17/8")


def test_known_total_examples():
    res = solve_known_total(iter([1, 2, 3, 4, 5]), 2, Fraction(1, 2), 15)
    assert res.bottleneck == Fraction(45, 4)
    assert res.instance_count == 3  # candidates 7.5, 11.25, 16.875
    assert res.separators is not None
    assert bottleneck_of([1, 2, 3, 4, 5], res.separators) <= 11

    res = solve_known_total(iter([2, 2]), 2, Fraction(1, 2), 4, mode="partb")
    assert res.bottleneck == 2 and res.separators is None

    res = solve_known_total(iter([0, 0, 0]), 2, Fraction(1, 2), 0)
    assert res.bottleneck == 0


def test_known_total_mismatch():
    with pytest.raises(KnowledgeMismatchError):
        solve_known_total(iter([1, 2, 3]), 2, Fraction(1, 2), 7)
    with pytest.raises(KnowledgeMismatchError):
        solve_known_total(iter([0, 0]), 2, Fraction(1, 2), 1)


def test_known_max_length_examples():
    res = solve_known_max_length(iter([1, 2, 3, 4, 5]), 2, Fraction(1, 2), 5, 5)
    assert res.bottleneck == Fraction(45, 4)

    res = solve_known_max_length(iter([7]), 2, Fraction(1, 2), 7, 1)
    assert res.bottleneck == 7 and res.instance_count == 1

    res = solve_known_max_length(iter([1, 1, 1, 1]), 2, 1, 1, 4)
    assert res.bottleneck == 2
    assert res.instance_count == 3  # candidates 1, 2, 4


def test_known_max_length_mismatches():
    with pytest.raises(KnowledgeMismatchError):
        solve_known_max_length(iter([1, 2, 3]), 2, Fraction(1, 2), 3, 4)
    with pytest.raises(KnowledgeMismatchError):
        # declared maximum above anything observed
        solve_known_max_length(iter([1, 2, 3]), 2, Fraction(1, 2), 5, 3)
    with pytest.raises(DeclaredBoundError):
        # element above the declared maximum fails during the pass
        solve_known_max_length(iter([1, 9, 1]), 2, Fraction(1, 2), 3, 3)
    with pytest.raises(DeclaredBoundError):
        solve_known_max_length(iter([1]), 2, Fraction(1, 2), 0, 1)


def test_known_max_examples():
    res = solve_known_max(iter([7]), 2, Fraction(1, 64), 7)
    assert res.bottleneck == 7

    res = solve_known_max(iter([1, 1, 1, 1, 1]), 2, Fraction(1, 64), 1, mode="partb")
    assert res.bottleneck == 2 * Fraction(65, 64) ** 27
    assert res.probe_instances == 644
    assert res.probe_ext_instances == 91
    assert res.instance_count == 735
    assert res.merges is None  # a plain probe won, not an escalator
    # the accuracy guarantee is established strictly below 1/64
    assert res.warning_flags == (WARN_EPSILON_RANGE,)


def test_known_max_grid_sizes_for_smaller_epsilon():
    res = solve_known_max(iter([1, 1]), 2, Fraction(1, 128), 1, mode="partb")
    assert res.probe_instances == 1456
    assert res.probe_ext_instances == 179


# perfbench's known-m-grid op: n = 2000 uniform weights in 0..1000, p = 64,
# eps = 1/100, the grid of 1065 probes and 140 escalators
GRID_SHAPE = (64, Fraction(1, 100))


def grid_shaped_stream() -> list[int]:
    return random.Random(16).choices(range(1001), k=2000)


def test_known_max_grid_sizes_at_the_perfbench_shape():
    weights = grid_shaped_stream()
    res = solve_known_max(iter(weights), *GRID_SHAPE, max(weights))
    assert (res.probe_instances, res.probe_ext_instances, res.instance_count) == (1065, 140, 1205)


def counted_walkers(monkeypatch) -> list[str]:
    """The class name of every walker built from now on, in order."""
    built = []
    init = _Walker.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(_Walker, "__init__", counted)
    return built


def test_one_element_known_max_builds_no_walker(monkeypatch):
    # every floor is at least the maximum, which is the whole total: no
    # element reaches a probe, so none is built, and the lowest floor wins;
    # the one chunk is the last and a floor survives it, so no escalator is
    # walked, and none is built
    built = counted_walkers(monkeypatch)
    res = solve_known_max(iter([1000]), *GRID_SHAPE, 1000)
    assert built == []
    assert (res.bottleneck, res.separators) == (1000, (1,) + (2,) * 64)
    assert (res.probe_instances, res.probe_ext_instances, res.instance_count) == (1065, 140, 1205)


def test_two_chunk_known_max_builds_the_escalators_once(monkeypatch):
    # chunk 1 is not the last, so its walk reads the escalators: they are
    # built there, all 140 at once, each before its first walk, and never
    # again; the race starts them without the public checks
    built = counted_walkers(monkeypatch)
    first_walks = {}
    walk = probe_ext.ProbeExtInstance.walk

    def watched_walk(self, prefix, top):
        first_walks.setdefault(id(self), (self.next_index, self.block_weight, self.merges))
        return walk(self, prefix, top)

    monkeypatch.setattr(probe_ext.ProbeExtInstance, "walk", watched_walk)
    checks = []
    monkeypatch.setattr(probe_ext, "checked_base", lambda *args: checks.append(args))
    monkeypatch.setattr(feasibility, "B", 1000)
    weights = grid_shaped_stream()
    res = solve_known_max(iter(weights), *GRID_SHAPE, max(weights))
    escalators = [k for k, name in enumerate(built) if name == "ProbeExtInstance"]
    assert len(escalators) == 140
    # built in one run, in chunk 1's walk
    assert escalators == list(range(escalators[0], escalators[0] + 140))
    assert list(first_walks.values()) == [(1, 0, 0)] * 140
    assert checks == []
    assert (res.merges, res.probe_ext_instances, res.instance_count) == (None, 140, 1205)


@pytest.mark.parametrize("size", [7, 4096], ids=["many-chunks", "one-chunk"])
@pytest.mark.parametrize("mode", ["part", "partb"])
def test_known_max_where_every_floor_dies_matches_the_reference(size, mode, monkeypatch):
    # 4096 unit weights at p = 2 and eps = 1/2 pass every floor of m = 1's
    # grid, so an escalator answers; as one chunk, the escalators are built
    # in the last walk, once no floor survived it
    monkeypatch.setattr(feasibility, "B", size)
    weights = [1] * 4096
    built = counted_walkers(monkeypatch)
    result = solve_known_max(iter(weights), 2, Fraction(1, 2), 1, mode=mode)
    assert built.count("ProbeExtInstance") == result.probe_ext_instances
    monkeypatch.setattr(schedulers, "_race", reference_race)
    expected = solve_known_max(iter(weights), 2, Fraction(1, 2), 1, mode=mode)
    assert result.to_json_dict() == expected.to_json_dict()
    assert (result.merges, result.bottleneck) == (11, 2048)
    assert (result.probe_instances, result.probe_ext_instances) == (
        expected.probe_instances, expected.probe_ext_instances)


def test_known_max_escalators_skip_the_public_checks(monkeypatch):
    # p, eps and m are checked where they enter the solver; the race starts
    # its 140 escalators from integer bases without checking them again
    calls = []
    checked = probe_ext.checked_base

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(probe_ext, "checked_base", counted)
    res = solve_known_max(iter([1000]), *GRID_SHAPE, 1000)
    assert (res.probe_ext_instances, len(calls)) == (140, 0)
    # the public constructor still checks its base
    probe_ext.ProbeExtInstance(1000, 64, Fraction(1, 100))
    assert len(calls) == 1


@pytest.mark.parametrize("size", [256, B])
def test_probe_grid_walks_few_dying_probes_per_chunk(size, monkeypatch):
    # per held chunk but the last: every touched survivor once, and the
    # binary search's dying middles, at most ceil(log2(1065)) + 1 of them;
    # the last chunk walks only the search's middles, and no escalator when
    # a floor survives
    walks = []
    walk = _Walker.walk

    def counted_walk(self, prefix, top):
        walks.append(self)
        return walk(self, prefix, top)

    escalator_walks = []

    def counted_escalator_walk(self, prefix, top):
        escalator_walks.append(len(per_chunk))
        return walk(self, prefix, top)

    per_chunk = []
    advance = _Race._advance

    def counted_advance(self, prefix, top, final):
        walks.clear()
        advance(self, prefix, top, final)
        per_chunk.append((len(walks), len(self.probes), final))

    monkeypatch.setattr(ProbeInstance, "walk", counted_walk)
    monkeypatch.setattr(probe_ext.ProbeExtInstance, "walk", counted_escalator_walk)
    monkeypatch.setattr(_Race, "_advance", counted_advance)
    monkeypatch.setattr(feasibility, "B", size)
    weights = grid_shaped_stream()
    res = solve_known_max(iter(weights), *GRID_SHAPE, max(weights))
    assert res.merges is None  # a floor survived
    chunks = -(-len(weights) // size)
    assert len(per_chunk) == chunks
    spare = math.ceil(math.log2(1065)) + 1
    *walked_early, (last_walked, _, final) = per_chunk
    for walked, survivors, early_final in walked_early:
        assert not early_final
        assert survivors <= walked <= survivors + spare
    assert final and last_walked <= spare
    # each escalator walked each chunk but the last
    assert escalator_walks == [k for k in range(chunks - 1) for _ in range(140)]


def test_one_chunk_known_max_builds_and_walks_only_the_sandwich(monkeypatch):
    # one chunk at perfbench's known-m shape: the race builds the grid's
    # floors from the low end of the stream's sandwich up to below its high
    # end, and each level's first floor at or above the high end, and its
    # search walks at most ceil(log2(k + 1)) + 1 of those k floors; a
    # floor survives, so no escalator is built
    weights = grid_shaped_stream()
    m = max(weights)
    num_blocks, epsilon = GRID_SHAPE
    low, high = sandwich(sum(weights), m, num_blocks)
    fresh = []
    build = _Race._build

    def counted_build(self, *args):
        fresh.append(build(self, *args))
        return fresh[-1]

    walks = []
    walk = ProbeInstance.walk

    def counted_walk(self, prefix, top):
        walks.append(self)
        return walk(self, prefix, top)

    monkeypatch.setattr(_Race, "_build", counted_build)
    monkeypatch.setattr(ProbeInstance, "walk", counted_walk)
    built = counted_walkers(monkeypatch)
    res = solve_known_max(iter(weights), num_blocks, epsilon, m)
    assert res.merges is None
    # 15 doubling levels of 71 steps: bounds m * 2**i * (1 + eps)**j
    assert res.probe_instances == 15 * 71
    levels = [[floor_fraction(m * 2**i * (1 + epsilon)**j) for j in range(71)]
              for i in range(15)]
    inside = {floor for level in levels for floor in level if low <= floor < high}
    past = {min(floor for floor in level if floor >= high)
            for level in levels if level[-1] >= high}
    assert fresh == [sorted(inside | past)]
    assert len(walks) <= math.ceil(math.log2(len(fresh[0]) + 1)) + 1
    assert "ProbeExtInstance" not in built


def test_known_max_warning_flag():
    res = solve_known_max(iter([3, 3]), 2, Fraction(1, 2), 3, mode="partb")
    assert WARN_EPSILON_RANGE in res.warning_flags
    res = solve_known_max(iter([3, 3]), 2, Fraction(1, 128), 3, mode="partb")
    assert res.warning_flags == ()


def test_known_max_escalator_fallback():
    """When the optimum dwarfs the probe grid ceiling, escalators answer."""
    weights = [1] * 4096
    res = solve_known_max(iter(weights), 2, Fraction(1, 2), 1, mode="partb")
    best = opt_bottleneck_binsearch(weights, 2).optimum
    assert res.merges is not None and res.merges >= 1
    assert res.bottleneck >= best
    assert (res.bottleneck, res.merges) == (2048, 11)
    # a winner whose base 3 * (1 + slack) is not an integer
    res = solve_known_max(iter([3] * 49), 2, "1/2", 3)
    assert (res.bottleneck, res.merges) == (Fraction(375, 4), 4)
    assert res.separators == (1, 28, 50)


def test_known_max_mismatch_and_bound_errors():
    with pytest.raises(DeclaredBoundError):
        solve_known_max(iter([1, 5]), 2, Fraction(1, 64), 3)
    with pytest.raises(KnowledgeMismatchError):
        solve_known_max(iter([1, 2]), 2, Fraction(1, 64), 3)
    with pytest.raises(ValueError):
        solve_known_max(iter([1]), 2, None, 1)
    with pytest.raises(ValueError):
        solve_known_max(iter([1]), 2, Fraction(-1, 2), 1)


def test_unknown_part_examples():
    res = solve_unknown_part(iter([1, 2, 3, 4, 5]), 2)
    assert res.bottleneck == 15  # 2 * max(5, 15/2)
    assert res.separators == (1, 6, 6)

    res = solve_unknown_part(iter([4, 4]), 2)
    assert res.bottleneck == 8

    res = solve_unknown_part(iter([0, 0]), 2)
    assert res.bottleneck == 0


def test_unknown_partb_examples():
    assert solve_unknown_partb(iter([1, 2, 3, 4, 5]), 2).bottleneck == Fraction(25, 2)
    assert solve_unknown_partb(iter([4, 4]), 2).bottleneck == 8
    assert solve_unknown_partb(iter([0, 0, 0]), 2).bottleneck == 0
    assert solve_unknown_partb(iter([]), 3).bottleneck == 0


def test_unknown_part_prefix_invariant():
    """After every element the maintained blocks split the prefix exactly."""
    rng = random.Random(401)
    for _ in range(40):
        weights = random_stream(rng, max_len=30)
        p = rng.choice((2, 3, 5))
        solver = UnknownPartSolver(p)
        for idx, w in enumerate(weights, start=1):
            solver.feed(w)
            seps = solver.separators
            assert seps[0] == 1 and seps[-1] == idx + 1
            assert all(a <= b for a, b in zip(seps, seps[1:]))
            cap = solver.bound
            prefix = weights[:idx]
            for k in range(p):
                block = sum(prefix[seps[k] - 1 : seps[k + 1] - 1])
                assert block == solver.block_weights[k]
                assert block <= cap


def test_sandwich_known_total():
    rng = random.Random(402)
    for _ in range(40):
        weights = random_stream(rng, max_len=60)
        p = rng.choice((2, 3, 5, 8))
        eps = rng.choice((Fraction(1, 2), Fraction(1, 10)))
        best = opt_bottleneck_binsearch(weights, p).optimum
        res = solve_known_total(iter(weights), p, eps, sum(weights), mode="partb")
        assert best <= res.bottleneck <= (1 + eps) * best


def test_sandwich_known_max_length():
    rng = random.Random(403)
    for _ in range(40):
        weights = random_stream(rng, max_len=60)
        p = rng.choice((2, 3, 5, 8))
        eps = rng.choice((Fraction(1, 2), Fraction(1, 10)))
        best = opt_bottleneck_binsearch(weights, p).optimum
        res = solve_known_max_length(
            iter(weights), p, eps, max(weights), len(weights), mode="partb"
        )
        assert best <= res.bottleneck <= (1 + eps) * best


def test_two_approx_bounds():
    rng = random.Random(404)
    for _ in range(60):
        weights = random_stream(rng, max_len=60)
        p = rng.choice((2, 3, 5, 8))
        best = opt_bottleneck_binsearch(weights, p).optimum
        part = solve_unknown_part(iter(weights), p)
        value = solve_unknown_partb(iter(weights), p)
        assert best <= part.bottleneck <= 2 * best or (best == 0 and part.bottleneck == 0)
        assert best <= value.bottleneck <= 2 * best or (best == 0 and value.bottleneck == 0)
        assert bottleneck_of(weights, part.separators) <= part.bottleneck


def test_single_pass_element_counts():
    weights = [3, 1, 4, 1, 5, 9, 2, 6]
    stream = CountingStream(weights)
    res = solve_known_total(stream, 2, Fraction(1, 2), sum(weights))
    assert stream.count == len(weights) == res.elements_read

    stream = CountingStream(weights)
    res = solve_known_max(stream, 2, Fraction(1, 16), max(weights), mode="partb")
    assert stream.count == len(weights) == res.elements_read

    stream = CountingStream(weights)
    res = solve_unknown_part(stream, 3)
    assert stream.count == len(weights) == res.elements_read


def test_space_accounting_is_reproducible():
    weights = [2, 7, 1, 8, 2, 8]
    first = solve_known_total(iter(weights), 3, Fraction(1, 10), 28)
    second = solve_known_total(iter(weights), 3, Fraction(1, 10), 28)
    assert first.space_peak_words == second.space_peak_words

    # per-instance words plus driver words
    res = solve_known_total(iter(weights), 3, Fraction(1, 10), 28, mode="partb")
    assert res.space_peak_words == res.instance_count * 4 + 2
    res = solve_known_max(iter(weights), 3, Fraction(1, 32), 8, mode="partb")
    assert res.space_peak_words == res.probe_instances * 4 + res.probe_ext_instances * 5 + 2


def test_dispatch_routing():
    weights = [1, 2, 3, 4, 5]
    res = dispatch(iter(weights), 2, Fraction(1, 2), KnowledgeProfile(total_weight=15))
    assert res.algorithm == "known-S"
    res = dispatch(iter(weights), 2, Fraction(1, 64), KnowledgeProfile(max_weight=5))
    assert res.algorithm == "known-m"
    # a declared maximum wins even when the length is also declared
    res = dispatch(
        iter(weights), 2, Fraction(1, 64), KnowledgeProfile(max_weight=5, length=5)
    )
    assert res.algorithm == "known-m"
    res = dispatch(iter(weights), 2, None, KnowledgeProfile())
    assert res.algorithm == "unknown-2approx" and res.separators is not None
    res = dispatch(iter(weights), 2, None, KnowledgeProfile(), mode="partb")
    assert res.algorithm == "unknown-2approx" and res.separators is None


def test_result_serialization_shape():
    res = solve_unknown_partb(iter([1, 2, 3, 4, 5]), 2)
    payload = res.to_json_dict()
    assert payload == {
        "mode": "partb",
        "algorithm": "unknown-2approx",
        "bottleneck_num": 25,
        "bottleneck_den": 2,
        "bottleneck_ceil": 13,
        "separators": None,
        "merges": None,
        "instance_count": 0,
        "space_peak_words": 3,
        "elements_read": 5,
        "epsilon": None,
        "warning_flags": [],
    }


def test_profile_validation():
    with pytest.raises(ValueError):
        KnowledgeProfile(max_weight=-1)


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), True])
def test_non_integer_weights_rejected_at_ingress(bad):
    weights = [1, bad, 1]
    solvers = [
        lambda s: solve_known_total(s, 2, "1/2", 3),
        lambda s: solve_known_max_length(s, 2, "1/2", 2, 3),
        lambda s: solve_known_max(s, 2, "1/64", 2),
        lambda s: solve_unknown_part(s, 2),
        lambda s: solve_unknown_partb(s, 2),
        lambda s: dispatch(s, 2, None, KnowledgeProfile()),
    ]
    for solve in solvers:
        with pytest.raises(ValueError, match="non-negative integers"):
            solve(iter(weights))
    # a float stream must not decide the answer, even when its sum matches
    with pytest.raises(ValueError):
        solve_known_total(iter([1.5, 2.5, 1.0]), 2, "1/2", 5)


def test_float_epsilon_rejected():
    solvers = [
        lambda eps: solve_known_total(iter([1, 2]), 2, eps, 3),
        lambda eps: solve_known_max_length(iter([1, 2]), 2, eps, 2, 2),
        lambda eps: solve_known_max(iter([1, 2]), 2, eps, 2, mode="partb"),
        lambda eps: dispatch(iter([1, 2]), 2, eps, KnowledgeProfile(total_weight=3)),
    ]
    for solve in solvers:
        for bad in (0.1, True):
            with pytest.raises(ValueError, match=r'"1/10".*Fraction'):
                solve(bad)
        for exact in ("1/10", Fraction(1, 10)):
            assert solve(exact).epsilon == Fraction(1, 10)
        assert solve(1).epsilon == 1
