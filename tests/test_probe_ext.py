import random
from fractions import Fraction

import pytest

from streampart import (
    DeclaredBoundError,
    ProbeExtInstance,
    approx_factor_bound,
    bottleneck_of,
    probe_ext_run,
    weight_lower_bound,
)
from helpers import random_stream


def test_merge_trace_even_blocks():
    result = probe_ext_run([1, 1, 1, 1, 1], 1, 2, 0)
    assert result.merges == 2
    assert result.bottleneck == 4
    assert result.separators == (1, 5, 6)
    assert bottleneck_of([1, 1, 1, 1, 1], result.separators) == 4


def test_merge_trace_odd_blocks():
    # p odd: the still-open block survives the merge and absorbs the element
    result = probe_ext_run([1, 1, 1, 1], 1, 3, 0)
    assert result.merges == 1
    assert result.bottleneck == 2
    assert result.separators == (1, 3, 5, 5)


def test_no_merge_cases():
    result = probe_ext_run([1, 1], 1, 2, 0)
    assert (result.merges, result.bottleneck, result.separators) == (0, 1, (1, 2, 3))
    result = probe_ext_run([1, 1], 1, 2, Fraction(1, 2))
    assert (result.merges, result.bottleneck, result.separators) == (
        0,
        Fraction(3, 2),
        (1, 2, 3),
    )
    result = probe_ext_run([0, 0, 0, 0], 0, 2, 0)
    assert (result.merges, result.bottleneck) == (0, 0)


def test_threshold_floor_is_exact_not_repeated():
    # base 8/5: after one doubling the floor must be floor(16/5) = 3,
    # not 2 * floor(8/5) = 2
    inst = ProbeExtInstance(1, 2, Fraction(3, 5))
    for w in (1, 1, 1):
        inst.feed(w)
    assert inst.merges == 1
    assert inst.threshold_floor == 3
    assert inst.bottleneck == Fraction(16, 5)


def test_declared_bound_violation():
    inst = ProbeExtInstance(3, 2)
    with pytest.raises(DeclaredBoundError):
        inst.feed(4)
    with pytest.raises(ValueError):
        inst.feed(-1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProbeExtInstance(-1, 2)
    with pytest.raises(ValueError):
        ProbeExtInstance("-1", 2)
    with pytest.raises(ValueError):
        ProbeExtInstance(1, 1)
    with pytest.raises(ValueError):
        ProbeExtInstance(1, 2, Fraction(-1, 2))
    with pytest.raises(ValueError):
        probe_ext_run([1], 1, 2, 0, mode="nope")


def test_string_maximum_is_exact():
    assert probe_ext_run([1, 2], "3", 2) == probe_ext_run([1, 2], 3, 2)
    with pytest.raises(DeclaredBoundError, match="element 4 exceeds declared maximum weight 3"):
        ProbeExtInstance("3", 2).feed(4)


def test_meter_words_per_instance():
    assert ProbeExtInstance(1, 4, 0, store_separators=False).words == 5
    assert ProbeExtInstance(1, 4, 0, store_separators=True).words == 5 + 3


def test_never_fails_and_output_is_valid():
    """Any stream within the declared maximum finishes with a valid split."""
    rng = random.Random(201)
    for _ in range(120):
        weights = random_stream(rng, max_len=40, max_weight=9)
        m = max(weights, default=0)
        p = rng.choice((2, 3, 4, 5, 8))
        slack = Fraction(rng.randint(0, 5), rng.randint(1, 6))
        result = probe_ext_run(weights, m, p, slack)
        floor = result.bottleneck.numerator // result.bottleneck.denominator
        assert bottleneck_of(weights, result.separators) <= floor
        assert (result.merges == 0) == (result.bottleneck == m * (1 + slack))


def test_weight_lower_bound_values():
    assert weight_lower_bound(1, 2, 1, 0) == Fraction(1, 2)
    assert weight_lower_bound(2, 2, 1, 0) == 1
    assert weight_lower_bound(3, 4, 2, Fraction(1, 2)) == Fraction(61, 2)
    with pytest.raises(ValueError):
        weight_lower_bound(0, 2, 1, 0)


def test_weight_lower_bound_holds_on_runs():
    rng = random.Random(202)
    merged = 0
    for _ in range(150):
        weights = random_stream(rng, max_len=50, max_weight=6)
        m = max(weights, default=0)
        p = rng.choice((2, 3, 5))
        slack = Fraction(rng.randint(0, 3), 4)
        result = probe_ext_run(weights, m, p, slack, mode="partb")
        if result.merges >= 1:
            merged += 1
            assert sum(weights) >= weight_lower_bound(result.merges, p, m, slack)
    assert merged > 10  # the corpus must actually exercise escalation


def test_approx_factor_values():
    assert approx_factor_bound(3, 0) == 8
    assert approx_factor_bound(12, 0) == 2 + Fraction(24, 2036)
    assert approx_factor_bound(2, 0) is None  # denominator hits zero
    # i=2, slack 1/2: 2 + 2*(5/2) / (2*(3/2) - 5/2) = 2 + 5/(1/2) = 12
    assert approx_factor_bound(2, Fraction(1, 2)) == 12
    with pytest.raises(ValueError):
        approx_factor_bound(1, 0)
