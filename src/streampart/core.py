"""Shared domain types: partitionings, stream statistics, and exact rationals.

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


class DeclaredBoundError(ValueError):
    """A stream element exceeded the declared maximum weight."""


class KnowledgeMismatchError(ValueError):
    """A declared stream parameter (maximum, length, or total) was wrong."""


class InfeasibleBoundError(ValueError):
    """A bound below the optimum cannot be realized as a partitioning."""


def as_fraction(value) -> Fraction:
    """Coerce int, str ("1/2", "0.25"), or Fraction to an exact Fraction.

    Anything else raises `ValueError`: a float is already a rounded binary
    value, and a bool would silently count as 0 or 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(
        f'exact values are given as an int, a string such as "1/10" or a Fraction; '
        f"got {value!r}"
    )


def check_count(name: str, value) -> None:
    """A length, count or weight must be a non-negative `int`; a `bool` or
    any other type raises `ValueError`."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


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
        for name in ("length", "max_weight", "total_weight"):
            check_count(f"stream {name}", getattr(self, name))
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


def _parse_weight(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"invalid weight token {token!r}: expected a non-negative integer")
    return int(token)


def iter_weights(stream: IO[str]) -> Iterator[int]:
    """Yield weights from whitespace-separated decimal text, 8 KiB at a time."""
    pending = ""
    while chunk := stream.read(1 << 13):
        tokens = (pending + chunk).split()
        if tokens and not chunk[-1].isspace():
            pending = tokens.pop()  # last token may continue in the next block
        else:
            pending = ""
        for token in tokens:
            yield _parse_weight(token)
        del tokens  # hold one token list: drop it before the next block is split
    if pending:
        yield _parse_weight(pending)


def parse_weights(text: str) -> list[int]:
    return [_parse_weight(token) for token in text.split()]


def format_weights(weights: Sequence[int]) -> str:
    return " ".join(str(w) for w in weights)
