import random

import pytest

from streampart import (
    GeneratorSpec,
    gen_constant,
    gen_index_hard,
    gen_spike,
    gen_uniform,
    gen_yz_hard,
    opt_bottleneck_binsearch,
)


def test_uniform_shape_and_determinism():
    a = gen_uniform(200, 9, seed=7)
    b = gen_uniform(200, 9, seed=7)
    c = gen_uniform(200, 9, seed=8)
    assert a == b
    assert a != c
    assert len(a) == 200
    assert all(0 <= w <= 9 for w in a)
    assert gen_uniform(0, 5) == []
    with pytest.raises(ValueError):
        gen_uniform(-1, 5)


# m = 2**j - 1 rejects no draw and m = 2**j about half of them
@pytest.mark.parametrize("max_weight", [0, 1, 2**10 - 1, 2**10, 1000, 10**20])
@pytest.mark.parametrize("seed", [0, 5, -3, 12345])
def test_uniform_draws_what_randint_draws(max_weight, seed):
    # gen_uniform reproduces CPython's randint from its getrandbits draws;
    # another interpreter's randint fails here instead of changing streams
    rng = random.Random(seed)
    expected = [rng.randint(0, max_weight) for _ in range(5000)]
    assert gen_uniform(5000, max_weight, seed) == expected
    # and the generator is left where randint leaves it
    assert gen_uniform(5001, max_weight, seed)[-1] == rng.randint(0, max_weight)


def test_constant():
    assert gen_constant(4, 4) == [4, 4, 4, 4]
    assert gen_constant(0, 3) == []
    with pytest.raises(ValueError):
        gen_constant(3, -1)


def test_spike_structure():
    stream = gen_spike(100, 50, seed=3)
    assert len(stream) == 100
    assert stream.count(50) == 5  # one spike per 20 elements
    assert all(w in (1, 50) for w in stream)
    assert gen_spike(100, 50, seed=3) == stream
    assert gen_spike(10, 0) == [0] * 10
    assert gen_spike(3, 9).count(9) == 1
    assert gen_spike(0, 5) == []


def test_index_hard_frozen():
    assert gen_index_hard("10", 2) == [1, 3, 3, 1, 4, 2]
    assert gen_index_hard((0, 1), 2) == [3, 1, 1, 3, 4, 2]
    # at the lowest valid index for an even bit count the filler run
    # is clamped to zero fours
    assert gen_index_hard("00", 1) == [3, 1, 3, 1, 2]


def test_index_hard_optimum_reveals_bit():
    assert opt_bottleneck_binsearch(gen_index_hard("10", 2), 2).optimum == 7
    assert opt_bottleneck_binsearch(gen_index_hard("01", 2), 2).optimum == 8
    # four bits, query the last: 4*4 - 1 = 15 iff bit is 0
    assert opt_bottleneck_binsearch(gen_index_hard("1110", 4), 2).optimum == 15
    assert opt_bottleneck_binsearch(gen_index_hard("1111", 4), 2).optimum == 16


def test_index_hard_shape():
    for bits, index in (("1011", 3), ("010", 2), ("1", 1), ("110101", 6)):
        stream = gen_index_hard(bits, index)
        count = len(bits)
        assert len(stream) == 2 * count + max(0, 2 * index - count - 1) + 1
        assert stream[-1] == 2
        for k in range(count):
            assert stream[2 * k] + stream[2 * k + 1] == 4


def test_index_hard_validation():
    with pytest.raises(ValueError):
        gen_index_hard("", 1)
    with pytest.raises(ValueError):
        gen_index_hard("012", 1)
    with pytest.raises(ValueError):
        gen_index_hard("1010", 0)  # below ceil(4/2)
    with pytest.raises(ValueError):
        gen_index_hard("1010", 5)  # above the bit count
    with pytest.raises(ValueError):
        gen_index_hard([0, 2], 1)


def test_yz_hard_structure():
    stream = gen_yz_hard(10, 2, 1, seed=0)
    assert len(stream) == 20
    assert stream[:2] == [1, 1]  # 2*(pairs-1) leading ones
    assert set(stream) <= {0, 1}
    first, second = stream[:10], stream[10:]
    assert sum(first) == 6  # 4*pairs - 2
    assert sum(second) == 0
    deeper = gen_yz_hard(10, 2, 2, seed=0)
    assert sum(deeper[10:]) == 4
    assert deeper[10:14] == [1, 1, 1, 1]
    assert gen_yz_hard(10, 2, 1, seed=5) == gen_yz_hard(10, 2, 1, seed=5)


def test_yz_hard_optimum_closed_form():
    assert opt_bottleneck_binsearch(gen_yz_hard(10, 2, 1, seed=0), 2).optimum == 3
    assert opt_bottleneck_binsearch(gen_yz_hard(10, 2, 2, seed=0), 2).optimum == 5
    for seed in range(10):
        for pairs in (1, 2, 3, 4):
            for bob in range(1, pairs + 1):
                stream = gen_yz_hard(4 * pairs, pairs, bob, seed=seed)
                expected = 2 * pairs - 1 + 2 * (bob - 1)
                assert opt_bottleneck_binsearch(stream, 2).optimum == expected


def test_yz_hard_validation():
    with pytest.raises(ValueError):
        gen_yz_hard(10, 0, 1)
    with pytest.raises(ValueError):
        gen_yz_hard(5, 2, 1)  # below 4*pairs - 2
    with pytest.raises(ValueError):
        gen_yz_hard(10, 2, 3)
    with pytest.raises(ValueError):
        gen_yz_hard(10, 2, 0)


def test_generator_spec_dispatch():
    assert GeneratorSpec("uniform", n=5, m=3, seed=1).make() == gen_uniform(5, 3, 1)
    assert GeneratorSpec("constant", n=2, m=4).make() == [4, 4]
    assert GeneratorSpec("spike", n=40, m=9, seed=2).make() == gen_spike(40, 9, 2)
    assert GeneratorSpec("yz", n=10, t=2, i=1, seed=3).make() == gen_yz_hard(10, 2, 1, 3)
    assert GeneratorSpec("index", bits="10", i=2).make() == gen_index_hard("10", 2)


def test_generator_spec_missing_fields():
    with pytest.raises(ValueError, match="requires m"):
        GeneratorSpec("uniform", n=5).make()
    with pytest.raises(ValueError, match="requires n, t, i"):
        GeneratorSpec("yz").make()
    with pytest.raises(ValueError, match="unknown generator kind"):
        GeneratorSpec("waves", n=5, m=3).make()


def test_generator_spec_field_types():
    # a None seed would seed from the OS, so the stream would not repeat
    with pytest.raises(ValueError, match="seed must be an int"):
        GeneratorSpec("uniform", n=3, m=9, seed=None)
    with pytest.raises(ValueError, match="kind must be a str"):
        GeneratorSpec(5, n=3, m=9)
    with pytest.raises(ValueError, match="bits must be a str"):
        GeneratorSpec("index", bits=5, i=1)
    with pytest.raises(ValueError, match="n must be an int"):
        GeneratorSpec("uniform", n=True, m=9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_constant(True, 3),
        lambda: gen_constant(2, 3.0),
        lambda: gen_uniform(2.5, 3),
        lambda: gen_uniform(2, True),
        lambda: gen_spike(4.0, 9),
        lambda: gen_yz_hard(10.0, 2, 1),
        lambda: gen_yz_hard(10, True, 1),
        lambda: gen_index_hard("10", 2.0),
    ],
    ids=["constant-length-bool", "constant-weight-float", "uniform-length-float",
         "uniform-max-bool", "spike-length-float", "yz-length-float", "yz-pairs-bool",
         "index-float"],
)
def test_generator_functions_reject_non_int_sizes(make):
    with pytest.raises(ValueError, match="must be a non-negative int"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gen_uniform(3, 9, seed=None), "seed must be an int"),
        (lambda: gen_uniform(3, 9, seed=1.5), "seed must be an int"),
        (lambda: gen_spike(10, 9, seed=True), "seed must be an int"),
        (lambda: gen_yz_hard(10, 2, 1, seed="1"), "seed must be an int"),
        (lambda: gen_index_hard([True, 0], 1), "sequence of 0/1"),
        (lambda: gen_index_hard([1.0, 0], 1), "sequence of 0/1"),
    ],
    ids=["uniform-seed-none", "uniform-seed-float", "spike-seed-bool", "yz-seed-str",
         "index-bit-bool", "index-bit-float"],
)
def test_generator_functions_reject_bad_seeds_and_bits(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_negative_seeds_are_accepted_and_repeat():
    assert gen_uniform(5, 9, seed=-3) == gen_uniform(5, 9, seed=-3)
    assert GeneratorSpec("uniform", n=5, m=9, seed=-3).make() == gen_uniform(5, 9, seed=-3)
