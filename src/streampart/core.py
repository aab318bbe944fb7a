"""Shared domain types: partitionings, stream statistics, and the space meter.

Conventions used across the package:

* A stream is a finite sequence of non-negative integer weights, processed
  left to right in a single pass.
* A partitioning of a length-n stream into p contiguous blocks is stored as
  p + 1 separator indices ``s_0 <= s_1 <= ... <= s_p`` with ``s_0 = 1`` and
  ``s_p = n + 1``; block k covers elements ``s_{k-1} .. s_k - 1`` (1-based)
  and may be empty.
* Reported bottleneck values are exact rationals (`fractions.Fraction`);
  feasibility of a rational bound only ever depends on its floor, and all
  comparisons against bounds are exact (never floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterator, Sequence


class InvalidPartitioningError(ValueError):
    """Separator list violates the partitioning invariants."""


class MeterAccountingError(RuntimeError):
    """Space meter asked to release more words than are currently live."""


class DeclaredBoundError(ValueError):
    """A stream element exceeded the declared maximum weight."""


class KnowledgeMismatchError(ValueError):
    """A declared stream parameter (maximum, length, or total) was wrong."""


class InfeasibleBoundError(ValueError):
    """A bound below the optimum cannot be realized as a partitioning."""


def as_fraction(value) -> Fraction:
    """Coerce int, str ("1/2", "0.25"), or Fraction to an exact Fraction.

    A float is refused: it is already a rounded binary value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(
            f'exact values are given as a string such as "1/10" or a Fraction; '
            f"got the float {value!r}"
        )
    return Fraction(value)


def floor_fraction(value: Fraction) -> int:
    return value.numerator // value.denominator


def ceil_fraction(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def validate_partitioning(length: int, num_blocks: int, separators: Sequence[int]) -> str | None:
    """Return None if the separators form a valid partitioning, else the first violation."""
    if num_blocks < 2:
        return f"block count must be at least 2, got {num_blocks}"
    if len(separators) != num_blocks + 1:
        return f"expected {num_blocks + 1} separators, got {len(separators)}"
    if separators[0] != 1:
        return f"first separator must be 1, got {separators[0]}"
    if separators[-1] != length + 1:
        return f"last separator must be {length + 1}, got {separators[-1]}"
    for k in range(1, len(separators)):
        if separators[k] < separators[k - 1]:
            return (
                f"separators must be non-decreasing: "
                f"s_{k}={separators[k]} < s_{k - 1}={separators[k - 1]}"
            )
    return None


def check_partitioning(length: int, num_blocks: int, separators: Sequence[int]) -> None:
    problem = validate_partitioning(length, num_blocks, separators)
    if problem is not None:
        raise InvalidPartitioningError(problem)


def block_weights(weights: Sequence[int], separators: Sequence[int]) -> list[int]:
    """Per-block sums for a valid partitioning of `weights`."""
    check_partitioning(len(weights), len(separators) - 1, separators)
    return [
        sum(weights[separators[k] - 1 : separators[k + 1] - 1])
        for k in range(len(separators) - 1)
    ]


def bottleneck_of(weights: Sequence[int], separators: Sequence[int]) -> int:
    """Maximum block weight of a valid partitioning."""
    return max(block_weights(weights, separators))


@dataclass(frozen=True)
class StreamStats:
    """Length, maximum element, and total weight of a stream."""

    length: int
    max_weight: int
    total_weight: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.max_weight < 0 or self.total_weight < 0:
            raise ValueError("stream statistics must be non-negative")
        if self.total_weight > self.length * self.max_weight:
            raise ValueError(
                f"total weight {self.total_weight} exceeds "
                f"length * max = {self.length * self.max_weight}"
            )
        if self.length >= 1 and self.max_weight > self.total_weight:
            raise ValueError(
                f"max weight {self.max_weight} exceeds total weight {self.total_weight}"
            )
        if self.length == 0 and (self.max_weight or self.total_weight):
            raise ValueError("empty stream must have zero max and total")

    @classmethod
    def from_weights(cls, weights: Sequence[int]) -> "StreamStats":
        return cls(
            length=len(weights),
            max_weight=max(weights, default=0),
            total_weight=sum(weights),
        )


class SpaceMeter:
    """Model-level accounting of live algorithm state, in machine words.

    One word holds any value that fits the instance at hand (an index up to
    n + 1 or a weight up to the stream total). Every live integer variable of
    an algorithm instance and every stored separator costs one word. This is
    a model of working-state size, deliberately unrelated to process memory.
    """

    __slots__ = ("live_words", "peak_words")

    def __init__(self) -> None:
        self.live_words = 0
        self.peak_words = 0

    def charge(self, words: int) -> None:
        if words < 0:
            raise ValueError(f"cannot charge {words} words")
        self.live_words += words
        if self.live_words > self.peak_words:
            self.peak_words = self.live_words

    def release(self, words: int) -> None:
        if words < 0:
            raise ValueError(f"cannot release {words} words")
        if words > self.live_words:
            raise MeterAccountingError(
                f"releasing {words} words but only {self.live_words} are live"
            )
        self.live_words -= words


def _parse_weight(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"invalid weight token {token!r}: expected a non-negative integer")
    return int(token)


def iter_weights(stream: IO[str]) -> Iterator[int]:
    """Yield weights from whitespace-separated decimal text, incrementally."""
    pending = ""
    while True:
        chunk = stream.read(1 << 16)
        if not chunk:
            break
        pending += chunk
        tokens = pending.split()
        if tokens and not pending[-1].isspace():
            pending = tokens.pop()  # last token may continue in the next chunk
        else:
            pending = ""
        for token in tokens:
            yield _parse_weight(token)
    if pending:
        yield _parse_weight(pending)


def parse_weights(text: str) -> list[int]:
    return [_parse_weight(token) for token in text.split()]


def format_weights(weights: Sequence[int]) -> str:
    return " ".join(str(w) for w in weights)
