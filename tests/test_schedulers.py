import math
import random
from fractions import Fraction

import pytest

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
from streampart import feasibility, probe_ext
from streampart.feasibility import B, ProbeInstance, _Walker
from streampart.schedulers import UnknownPartSolver, _Race
from helpers import CountingStream, random_stream


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


def test_one_element_known_max_builds_no_probe(monkeypatch):
    # every floor is at least the maximum, which is the whole total: no
    # element reaches a probe, so none is built, and the lowest floor wins
    built = []
    init = _Walker.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(_Walker, "__init__", counted)
    res = solve_known_max(iter([1000]), *GRID_SHAPE, 1000)
    assert built == ["ProbeExtInstance"] * 140
    assert (res.bottleneck, res.separators) == (1000, (1,) + (2,) * 64)
    assert (res.probe_instances, res.instance_count) == (1065, 1205)


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
        per_chunk.append((len(walks), self.touched - self.lo, final))

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
