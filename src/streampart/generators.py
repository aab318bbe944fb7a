"""Deterministic stream generators, including two adversarial families
whose optima have closed forms (both are meant to be split into two blocks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .core import check_count, int_text


def check_seed(seed) -> None:
    """A seed must be an `int`, negative ones included; a `bool`, a float or
    None (which would seed from the OS) raises `ValueError`."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")


def gen_uniform(length: int, max_weight: int, seed: int = 0) -> list[int]:
    """Independent uniform draws from 0..max_weight: the values of
    `random.Random(seed).randint(0, max_weight)`, drawn in bulk.

    CPython's `randint(0, m)` draws `getrandbits(k)`, with k the bit length
    of m + 1, until a value is at most m. So its values, in order, are the
    draws less the rejected ones, topped up one draw at a time.
    """
    check_count("length", length)
    check_count("maximum weight", max_weight)
    check_seed(seed)
    rng = random.Random(seed)
    bits = (max_weight + 1).bit_length()
    weights = [r for r in map(rng.getrandbits, repeat(bits, length)) if r <= max_weight]
    while len(weights) < length:
        draw = rng.getrandbits(bits)
        if draw <= max_weight:
            weights.append(draw)
    return weights


def gen_constant(length: int, weight: int) -> list[int]:
    check_count("length", length)
    check_count("weight", weight)
    return [weight] * length


def gen_spike(length: int, max_weight: int, seed: int = 0) -> list[int]:
    """Baseline-one stream with a few spikes of the maximal weight."""
    check_count("length", length)
    check_count("maximum weight", max_weight)
    check_seed(seed)
    if max_weight == 0:
        return [0] * length
    stream = [1] * length
    if length == 0:
        return stream
    rng = random.Random(seed)
    spikes = max(1, length // 20)
    for position in rng.sample(range(length), spikes):
        stream[position] = max_weight
    return stream


def gen_index_hard(bits: Sequence[int] | str, index: int) -> list[int]:
    """Bit-string instance: the optimum reveals one queried bit.

    The prefix encodes each bit b as an adjacent pair (3 - 2b, 2b + 1) of
    total 4; the tail is max(0, 2*index - len(bits) - 1) fours followed by a
    single 2. Split into two blocks, the optimum equals 4*index - 1 exactly
    when the queried bit is 0 (the tail-count formula requires
    2*index - len(bits) - 1 >= 0; below that it is clamped and the closed
    form no longer applies).
    """
    if isinstance(bits, str):
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bits must be a non-empty string over 0/1, got {bits!r}")
        bit_values = [int(c) for c in bits]
    else:
        bit_values = list(bits)
        if not bit_values or any(type(b) is not int or b not in (0, 1) for b in bit_values):
            raise ValueError("bits must be a non-empty sequence of 0/1")
    count = len(bit_values)
    check_count("index", index)
    if not (-(-count // 2) <= index <= count):
        raise ValueError(
            f"index must lie in [{-(-count // 2)}, {count}], got {int_text(index)}"
        )
    stream: list[int] = []
    for b in bit_values:
        stream.append(3 - 2 * b)
        stream.append(2 * b + 1)
    stream.extend([4] * max(0, 2 * index - count - 1))
    stream.append(2)
    return stream


def gen_yz_hard(length: int, pairs: int, bob_index: int, seed: int = 0) -> list[int]:
    """Two-phase 0/1 instance with a seed-chosen hard first half.

    The first half starts with 2*(pairs-1) ones, then mixes `pairs` adjacent
    one-pairs among single zeros (placement chosen by the seed; adjacent
    pairs are allowed), for a total weight of 4*pairs - 2. The second half is
    4*(bob_index - 1) ones followed by zeros. Split into two blocks, the
    optimum is 2*pairs - 1 + 2*(bob_index - 1): every value is reachable
    because all elements are 0 or 1 and the total is even.
    """
    check_count("length", length)
    check_count("pair count", pairs)
    check_count("bob index", bob_index)
    check_seed(seed)
    if pairs < 1:
        raise ValueError(f"pair count must be at least 1, got {pairs}")
    if length < 4 * pairs - 2:
        raise ValueError(
            f"length must be at least 4*pairs - 2 = {int_text(4 * pairs - 2)}, "
            f"got {int_text(length)}"
        )
    if not (1 <= bob_index <= pairs):
        raise ValueError(
            f"bob index must lie in [1, {int_text(pairs)}], got {int_text(bob_index)}"
        )
    zeros = length - 4 * pairs + 2
    slots = zeros + pairs
    rng = random.Random(seed)
    pair_slots = set(rng.sample(range(slots), pairs))
    first = [1] * (2 * (pairs - 1))
    for slot in range(slots):
        if slot in pair_slots:
            first.extend((1, 1))
        else:
            first.append(0)
    second = [1] * (4 * (bob_index - 1))
    second.extend([0] * (length - len(second)))
    return first + second


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """Declarative description of a generated stream (bench config rows)."""

    kind: str
    n: int | None = None
    m: int | None = None
    t: int | None = None
    i: int | None = None
    bits: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in (("kind", str), ("bits", str), ("n", int), ("m", int), ("t", int),
                           ("i", int)):
            value = getattr(self, name)
            if (value is not None or name == "kind") and type(value) is not kind:
                article = "an" if kind is int else "a"
                raise ValueError(
                    f"generator field {name} must be {article} {kind.__name__}, got {value!r}"
                )
        check_seed(self.seed)

    def make(self) -> list[int]:
        if self.kind not in GENERATORS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        generator, names = GENERATORS[self.kind]
        values = [getattr(self, name) for name in names]
        missing = [name for name, value in zip(names, values) if value is None]
        if missing:
            raise ValueError(f"generator kind {self.kind!r} requires {', '.join(missing)}")
        return generator(*values)


# kind -> (generator, the GeneratorSpec fields it takes, in its positional order)
GENERATORS = {
    "uniform": (gen_uniform, ("n", "m", "seed")),
    "constant": (gen_constant, ("n", "m")),
    "spike": (gen_spike, ("n", "m", "seed")),
    "yz": (gen_yz_hard, ("n", "t", "i", "seed")),
    "index": (gen_index_hard, ("bits", "i")),
}
