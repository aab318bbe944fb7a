import random
from fractions import Fraction

import pytest

from streampart import (
    ProbeFailure,
    ProbeInstance,
    bottleneck_of,
    probe_run,
    realize_partition,
)
from helpers import brute_force_optimum, greedy_maximality_check, random_stream


def feed_all(instance, weights):
    for w in weights:
        instance.feed(w)
        if not instance.alive:
            break
    return instance


def test_feed_trace_records_separator_at_opening_element():
    inst = ProbeInstance(9, 2)
    for w in (1, 2, 3):
        inst.feed(w)
    assert inst.alive and list(inst.separators) == []
    inst.feed(4)  # 6 + 4 > 9, so 4 opens block 2 at index 4
    assert list(inst.separators) == [4]
    inst.feed(5)
    assert inst.alive
    assert inst.finish(5).separators == (1, 4, 6)


def test_feed_element_exceeding_threshold_fails_immediately():
    inst = ProbeInstance(4, 2)
    inst.feed(5)
    assert inst.failure is ProbeFailure.ELEMENT_EXCEEDS_THRESHOLD
    with pytest.raises(RuntimeError):
        inst.feed(1)


def test_feed_fails_when_blocks_run_out():
    inst = feed_all(ProbeInstance(8, 2), (1, 2, 3, 4, 5))
    assert inst.failure is ProbeFailure.PARTITIONS_EXHAUSTED
    # the failure lands exactly on the fifth element: 1+2+3 fit, 4 opens
    # block 2, and 4+5 = 9 > 8 with no block left
    assert inst.next_index == 6


def test_finish_examples():
    assert probe_run([1, 2, 3, 4, 5], 9, 2).separators == (1, 4, 6)
    out = probe_run([0, 0, 0], 0, 2)
    assert out.success and out.separators == (1, 4, 4)
    out = probe_run([1, 2, 3, 4, 5], 8, 2)
    assert not out.success and out.failure is ProbeFailure.PARTITIONS_EXHAUSTED


def test_run_examples():
    assert probe_run([1, 2, 3, 4, 5], 9, 2).success
    assert probe_run([1, 2, 3, 4, 5], Fraction(45, 4), 2).success
    out = probe_run([5, 5], 5, 2)
    assert out.separators == (1, 2, 3)


def test_finish_length_cross_check():
    inst = feed_all(ProbeInstance(10, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        inst.finish(4)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProbeInstance(-1, 2)
    with pytest.raises(ValueError):
        realize_partition([1, 2], 2, -1)
    with pytest.raises(ValueError):
        ProbeInstance(3, 1)
    with pytest.raises(ValueError):
        probe_run([1], 1, 2, mode="bogus")
    inst = ProbeInstance(3, 2)
    with pytest.raises(ValueError):
        inst.feed(-2)


def test_meter_words_per_instance():
    assert ProbeInstance(5, 4, store_separators=False).words == 4
    assert ProbeInstance(5, 4, store_separators=True).words == 4 + 3  # three reserved separators


def test_maximality_examples():
    out = probe_run([1, 2, 3, 4, 5], 9, 2)
    assert greedy_maximality_check([1, 2, 3, 4, 5], out, 9)
    out = probe_run([0, 0, 0], 0, 2)
    assert greedy_maximality_check([0, 0, 0], out, 0)
    out = probe_run([1, 1, 1, 1], 2, 2)
    assert out.separators == (1, 3, 5)
    assert greedy_maximality_check([1, 1, 1, 1], out, 2)


def test_maximality_rejects_lazy_split():
    from streampart import ProbeOutcome

    lazy = ProbeOutcome(True, separators=(1, 2, 6))
    assert not greedy_maximality_check([1, 2, 3, 4, 5], lazy, 9)


def test_feasibility_iff_small_exhaustive():
    """Integer-bound success is exactly equivalent to bound >= optimum."""
    rng = random.Random(101)
    for _ in range(60):
        weights = random_stream(rng, max_len=12, max_weight=6)
        p = rng.choice((2, 3, 4))
        best = brute_force_optimum(weights, p)
        total = sum(weights)
        for bound in range(0, total + 2):
            assert probe_run(weights, bound, p, mode="partb").success == (bound >= best)


def test_success_monotone_in_bound():
    rng = random.Random(102)
    for _ in range(40):
        weights = random_stream(rng, max_len=20, max_weight=8)
        p = rng.choice((2, 3, 5))
        total = sum(weights)
        seen_success = False
        for bound in range(0, total + 1):
            ok = probe_run(weights, bound, p, mode="partb").success
            if seen_success:
                assert ok
            seen_success = seen_success or ok
        assert seen_success  # bound = total always fits in one block


def test_success_separators_respect_bound_and_maximality():
    rng = random.Random(103)
    checked = 0
    while checked < 60:
        weights = random_stream(rng, max_len=25, max_weight=9)
        p = rng.choice((2, 3, 5))
        bound = Fraction(rng.randint(0, 4 * sum(weights) + 4), rng.randint(1, 4))
        out = probe_run(weights, bound, p)
        if not out.success:
            continue
        checked += 1
        floor = bound.numerator // bound.denominator
        assert bottleneck_of(weights, out.separators) <= floor
        assert greedy_maximality_check(weights, out, bound)


def test_floor_equivalence():
    rng = random.Random(104)
    for _ in range(60):
        weights = random_stream(rng, max_len=20)
        p = rng.choice((2, 3, 5))
        bound = Fraction(rng.randint(0, 2 * sum(weights) + 8), rng.randint(2, 7))
        floored = bound.numerator // bound.denominator
        a = probe_run(weights, bound, p)
        b = probe_run(weights, floored, p)
        assert a.success == b.success
        assert a.separators == b.separators
        assert a.failure == b.failure
