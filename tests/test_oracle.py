import random
from fractions import Fraction

import pytest

from streampart import (
    InfeasibleBoundError,
    bottleneck_of,
    opt_bottleneck_binsearch,
    opt_bottleneck_dp,
    realize_partition,
)
from helpers import MIXES, brute_force_optimum, mixed_stream, random_stream


def test_binsearch_examples():
    assert opt_bottleneck_binsearch([1, 2, 3, 4, 5], 2).optimum == 9
    assert opt_bottleneck_binsearch([0, 0, 0, 0], 3).optimum == 0
    assert opt_bottleneck_binsearch([], 2).optimum == 0
    assert opt_bottleneck_binsearch([1, 2, 3, 4, 5], 2).method == "binsearch"


def test_dp_examples():
    assert opt_bottleneck_dp([1, 2, 3, 4, 5], 2).optimum == 9
    assert opt_bottleneck_dp([5, 5], 2).optimum == 5
    assert opt_bottleneck_dp([4, 4], 2).optimum == 4
    assert opt_bottleneck_dp([7], 5).optimum == 7


def test_oracles_match_brute_force():
    rng = random.Random(301)
    for _ in range(80):
        weights = random_stream(rng, max_len=12, max_weight=7)
        p = rng.choice((2, 3, 4))
        expected = brute_force_optimum(weights, p)
        assert opt_bottleneck_binsearch(weights, p).optimum == expected
        assert opt_bottleneck_dp(weights, p).optimum == expected


def test_oracles_agree_on_larger_instances():
    rng = random.Random(302)
    for _ in range(60):
        weights = random_stream(rng, max_len=80)
        p = rng.choice((2, 3, 5, 8))
        a = opt_bottleneck_binsearch(weights, p).optimum
        b = opt_bottleneck_dp(weights, p).optimum
        assert a == b
    # each weight mix (zero runs, spikes that lift the maximum mid-stream,
    # and perfbench's streams, uniform in 0..1000) up to 10^4 weights, p > n
    for mix in MIXES:
        for length, p in ((5, 64), (300, 512), (2000, 64), (10**4, 64), (10**4, 3)):
            weights = mixed_stream(length, length, mix)
            a = opt_bottleneck_binsearch(weights, p).optimum
            assert a == opt_bottleneck_dp(weights, p).optimum, (mix, length, p)


def test_optimum_within_closed_interval():
    rng = random.Random(303)
    for _ in range(80):
        weights = random_stream(rng, max_len=40)
        p = rng.choice((2, 3, 5, 8))
        best = opt_bottleneck_binsearch(weights, p).optimum
        total, top = sum(weights), max(weights, default=0)
        assert max(-(-total // p), top) <= best
        assert best <= (total + (p - 1) * top) // p


def test_domain_errors():
    with pytest.raises(ValueError):
        opt_bottleneck_binsearch([1, 2], 1)
    with pytest.raises(ValueError):
        opt_bottleneck_dp([1, 2], 1)
    # no size cap: n^2 * p = 32,000,000 cells would have been refused
    assert opt_bottleneck_dp([1] * 2000, 8).optimum == 250
    # one block already holds the largest weight alone: no more levels run
    assert opt_bottleneck_dp([0] * 5000 + [7], 5000).optimum == 7


def test_realize_examples():
    assert realize_partition([1, 2, 3, 4, 5], 2, 9) == (1, 4, 6)
    assert realize_partition([1, 2, 3, 4, 5], 2, Fraction(25, 2)) == (1, 5, 6)
    with pytest.raises(InfeasibleBoundError):
        realize_partition([1, 2, 3, 4, 5], 2, 8)
    with pytest.raises(InfeasibleBoundError):
        realize_partition([9], 2, 5)  # single element above the floor


def test_realize_at_optimum_always_succeeds():
    rng = random.Random(304)
    for _ in range(80):
        weights = random_stream(rng, max_len=30)
        p = rng.choice((2, 3, 5))
        best = opt_bottleneck_binsearch(weights, p).optimum
        separators = realize_partition(weights, p, best)
        assert bottleneck_of(weights, separators) <= best
        # a fractional bound acts through its floor
        with_slack = realize_partition(weights, p, Fraction(4 * best + 3, 4))
        assert bottleneck_of(weights, with_slack) <= best
