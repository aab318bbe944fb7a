import io
import random
from fractions import Fraction

import pytest

from streampart import (
    InvalidPartitioningError,
    MeterAccountingError,
    SpaceMeter,
    StreamStats,
    as_fraction,
    block_weights,
    bottleneck_of,
    ceil_fraction,
    check_partitioning,
    floor_fraction,
    format_weights,
    iter_weights,
    parse_weights,
    validate_partitioning,
)
from helpers import random_stream


def test_bottleneck_examples():
    assert bottleneck_of([1, 2, 3, 4, 5], (1, 4, 6)) == 9
    assert bottleneck_of([0, 0, 0], (1, 2, 4)) == 0
    # empty trailing block
    assert bottleneck_of([1, 2, 3, 4, 5], (1, 6, 6)) == 15


def test_bottleneck_rejects_bad_separators():
    with pytest.raises(InvalidPartitioningError):
        bottleneck_of([1, 2, 3], (1, 5, 4))
    with pytest.raises(InvalidPartitioningError):
        bottleneck_of([1, 2, 3], (2, 3, 4))


def test_validate_partitioning_examples():
    assert validate_partitioning(5, 2, (1, 4, 6)) is None
    assert "s_2" in validate_partitioning(5, 2, (1, 7, 6))
    assert "first separator" in validate_partitioning(5, 2, (2, 4, 6))
    assert "last separator" in validate_partitioning(5, 2, (1, 4, 5))
    assert "expected 3 separators" in validate_partitioning(5, 2, (1, 6))
    assert "block count" in validate_partitioning(5, 1, (1, 6))


def test_check_partitioning_raises():
    check_partitioning(3, 2, (1, 2, 4))
    with pytest.raises(InvalidPartitioningError):
        check_partitioning(3, 2, (1, 5, 4))


def test_block_weights_sum_to_total():
    rng = random.Random(11)
    for _ in range(50):
        weights = random_stream(rng, max_len=30)
        n = len(weights)
        p = rng.randint(2, 6)
        mids = sorted(rng.randint(1, n + 1) for _ in range(p - 1))
        separators = (1, *mids, n + 1)
        sums = block_weights(weights, separators)
        assert sum(sums) == sum(weights)


def test_duplicate_separator_keeps_bottleneck():
    """Splitting any block with an empty block never changes the value."""
    rng = random.Random(12)
    for _ in range(50):
        weights = random_stream(rng, max_len=20)
        n = len(weights)
        p = rng.randint(2, 5)
        mids = sorted(rng.randint(1, n + 1) for _ in range(p - 1))
        separators = [1, *mids, n + 1]
        value = bottleneck_of(weights, separators)
        k = rng.randrange(len(separators))
        widened = separators[:k] + [separators[k]] + separators[k:]
        assert bottleneck_of(weights, widened) == value


def test_stream_stats():
    stats = StreamStats.from_weights([1, 2, 3])
    assert (stats.length, stats.max_weight, stats.total_weight) == (3, 3, 6)
    assert StreamStats.from_weights([]) == StreamStats(0, 0, 0)
    with pytest.raises(ValueError):
        StreamStats(length=2, max_weight=1, total_weight=3)  # S > n*m
    with pytest.raises(ValueError):
        StreamStats(length=2, max_weight=5, total_weight=4)  # m > S
    with pytest.raises(ValueError):
        StreamStats(length=0, max_weight=1, total_weight=0)
    with pytest.raises(ValueError):
        StreamStats(length=-1, max_weight=0, total_weight=0)


def test_space_meter_examples():
    meter = SpaceMeter()
    meter.charge(4)
    meter.charge(2)
    assert (meter.live_words, meter.peak_words) == (6, 6)

    meter = SpaceMeter()
    meter.charge(4)
    meter.release(4)
    meter.charge(3)
    assert (meter.live_words, meter.peak_words) == (3, 4)


def test_space_meter_over_release():
    meter = SpaceMeter()
    meter.charge(2)
    with pytest.raises(MeterAccountingError):
        meter.release(3)
    with pytest.raises(ValueError):
        meter.charge(-1)


def test_fraction_helpers():
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(3) == 3
    assert as_fraction(Fraction(7, 4)) == Fraction(7, 4)
    with pytest.raises(ValueError, match=r'"1/10".*Fraction'):
        as_fraction(0.5)
    assert floor_fraction(Fraction(45, 4)) == 11
    assert floor_fraction(Fraction(-1, 4)) == -1
    assert ceil_fraction(Fraction(45, 4)) == 12
    assert ceil_fraction(Fraction(8)) == 8


def test_parse_and_format_round_trip():
    weights = [0, 13, 5, 999999999999999, 1]
    text = format_weights(weights)
    assert parse_weights(text) == weights
    assert parse_weights("  1\n2\t3 ") == [1, 2, 3]
    with pytest.raises(ValueError):
        parse_weights("1 -2 3")
    with pytest.raises(ValueError):
        parse_weights("1 x 3")


def test_iter_weights_streams_across_chunks():
    # tokens straddling the read chunk boundary must reassemble
    weights = [random.Random(5).randint(0, 10 ** 6) for _ in range(20000)]
    text = " ".join(str(w) for w in weights)
    assert list(iter_weights(io.StringIO(text))) == weights
    assert list(iter_weights(io.StringIO(""))) == []
    assert list(iter_weights(io.StringIO("7"))) == [7]
