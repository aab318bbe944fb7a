import io
import random
import tracemalloc
from fractions import Fraction

import pytest

from streampart import (
    PART_MODE,
    PARTB_MODE,
    InvalidPartitioningError,
    KnowledgeProfile,
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
from streampart.core import READ_BLOCK
from streampart.feasibility import B
from streampart.schedulers import SOLVERS, solve_tagged
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
    # a separator that is no int is refused before it is compared or sliced
    for separators in ((1, 2.0, 4), (1, "2", 4), (True, 2, 4)):
        with pytest.raises(InvalidPartitioningError):
            bottleneck_of([1, 2, 3], separators)
        with pytest.raises(InvalidPartitioningError):
            block_weights([1, 2, 3], separators)
        with pytest.raises(InvalidPartitioningError):
            check_partitioning(3, 2, separators)


def test_validate_partitioning_examples():
    assert validate_partitioning(5, 2, (1, 4, 6)) is None
    assert "s_2" in validate_partitioning(5, 2, (1, 7, 6))
    assert "first separator" in validate_partitioning(5, 2, (2, 4, 6))
    assert "last separator" in validate_partitioning(5, 2, (1, 4, 5))
    assert "expected 3 separators" in validate_partitioning(5, 2, (1, 6))
    assert "block count" in validate_partitioning(5, 1, (1, 6))
    assert validate_partitioning(3, 2, (1, 2.0, 4)) == "separator s_1 must be an int, got 2.0"
    assert validate_partitioning(3, 2, (1, "2", 4)) == "separator s_1 must be an int, got '2'"
    assert validate_partitioning(3, 2, (True, 2, 4)) == "separator s_0 must be an int, got True"


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
    with pytest.raises(ValueError, match="must be a non-negative int"):
        StreamStats(length=1.5, max_weight=True, total_weight=1)
    with pytest.raises(ValueError, match="stream total_weight must be a non-negative int"):
        StreamStats(length=1, max_weight=1, total_weight=Fraction(1))


# the driver words each grid solver declares for itself
DRIVER_WORDS = {"known-S": 2, "known-mn": 3, "known-m": 2}


@pytest.mark.parametrize("mode", [PART_MODE, PARTB_MODE])
@pytest.mark.parametrize("tag", sorted(SOLVERS))
def test_space_peak_words_counts_driver_and_instance_words(tag, mode):
    weights = [2, 7, 1, 8, 2, 8, 1, 8]
    num_blocks = 3
    stats = StreamStats.from_weights(weights)
    profile = KnowledgeProfile(stats.max_weight, stats.length, stats.total_weight)
    res = solve_tagged(tag, iter(weights), num_blocks, "1/32", profile, mode=mode)
    if tag == "unknown-2approx":
        # counter, total, max, bound, plus a start index and a weight per block
        expected = 4 + 2 * num_blocks if mode == PART_MODE else 3
    else:
        # a probe holds 4 words, an escalator 5, each plus p-1 stored separators
        extra = num_blocks - 1 if mode == PART_MODE else 0
        assert res.instance_count == res.probe_instances + res.probe_ext_instances
        expected = (DRIVER_WORDS[tag] + res.probe_instances * (4 + extra)
                    + res.probe_ext_instances * (5 + extra))
    assert res.space_peak_words == expected
    # the buffers are reported apart: the chunk being read, B weights and
    # B + 1 prefix sums, or only the B weights for unknown partb, which
    # walks no instance; the grid solvers add the chunk the race holds, its
    # B + 1 prefix sums and its largest weight
    if tag != "unknown-2approx":
        assert res.buffer_words == 3 * B + 3
    else:
        assert res.buffer_words == (B if mode == PARTB_MODE else 2 * B + 1)


def test_fraction_helpers():
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(3) == 3
    assert as_fraction(Fraction(7, 4)) == Fraction(7, 4)
    for bad in (0.5, True, None, [1]):
        with pytest.raises(ValueError, match=r'"1/10".*Fraction'):
            as_fraction(bad)
    assert floor_fraction(Fraction(45, 4)) == 11
    assert floor_fraction(Fraction(-1, 4)) == -1
    assert ceil_fraction(Fraction(45, 4)) == 12
    assert ceil_fraction(Fraction(8)) == 8


# CPython reads at most 4300 digits with int(str), and so with Fraction(str)
LONG = "1" + "0" * 5000


@pytest.mark.parametrize("text, value", [
    (f"1/{LONG}", Fraction(1, 10**5000)),
    (f" -{LONG}/3 ", Fraction(-(10**5000), 3)),
    (f"{LONG}/{LONG}0", Fraction(1, 10)),
    (f"0.{LONG}", Fraction(int(LONG[:4000]) * 10**1001, 10**5001)),
    (f"{LONG}e-5000", Fraction(1)),
    (f"+{LONG}", Fraction(10**5000)),
], ids=["denominator", "numerator", "both", "decimal", "exponent", "integer"])
def test_as_fraction_reads_literals_past_the_digit_limit(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", [
    f"1 /{LONG}", f"1/ {LONG}", f"{LONG}/-3", f"1/+{LONG}", f"1/{LONG}x", f"nan{LONG}",
    f"{LONG}.5.5", f"{LONG} 1",
])
def test_as_fraction_keeps_fractions_message_past_the_digit_limit(text):
    with pytest.raises(ValueError) as raised:
        as_fraction(text)
    assert str(raised.value) == f"Invalid literal for Fraction: {text!r}"


def test_as_fraction_long_zero_denominator():
    text = "1/" + "0" * 5001
    with pytest.raises(ValueError) as raised:
        as_fraction(text)
    assert str(raised.value) == f"{text!r} has a zero denominator"


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
    # a block that ends exactly on whitespace: its last token is complete
    ones = READ_BLOCK // 2
    assert list(iter_weights(io.StringIO("1 " * ones + "23 4"))) == [1] * ones + [23, 4]
    # a token straddling the boundary: "45" ends the first block, "67" opens the next
    ones = READ_BLOCK // 2 - 1
    assert list(iter_weights(io.StringIO("1 " * ones + "4567 8"))) == [1] * ones + [4567, 8]


def test_iter_weights_holds_one_block_of_tokens():
    # the parser's own memory is bounded by a block, not by the text
    text = " ".join(map(str, random.Random(6).choices(range(1001), k=10 ** 5))) + "\n"
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_weights(source))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 10 ** 5
    assert peak < 512 * 1024
