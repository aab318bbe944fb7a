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

import io
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain
from operator import countOf
from typing import IO, Callable, Iterator, Sequence


class InvalidPartitioningError(ValueError):
    """Separator list violates the partitioning invariants."""


class DeclaredBoundError(ValueError):
    """A stream element exceeded the declared maximum weight."""


class KnowledgeMismatchError(ValueError):
    """A declared stream parameter (maximum, length, or total) was wrong."""


class InfeasibleBoundError(ValueError):
    """A bound below the optimum cannot be realized as a partitioning."""


def as_fraction(value) -> Fraction:
    """Coerce int, str ("1/2", "0.25", of any length), or Fraction to an
    exact Fraction.

    Anything else raises `ValueError`: a float is already a rounded binary
    value, a bool would silently count as 0 or 1, and "1/0" is no number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            try:
                return Fraction(value)
            except ValueError:
                # Fraction(str) reads its digits with int(str), under CPython's
                # digit limit: a literal past it is read here, anything else
                # keeps Fraction's message
                if isinstance(value, str) and (long := _long_fraction(value)) is not None:
                    return long
                raise
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise ValueError(
        f'exact values are given as an int, a string such as "1/10" or a Fraction; '
        f"got {value!r}"
    )


def _long_fraction(text: str) -> Fraction | None:
    """The value of a literal that `Fraction(str)` reads, "a/b" or a
    decimal, also past CPython's digit limit for `int(str)`: its two parts
    read with `parse_int`, a decimal with `decimal`. None for any text that
    `Fraction(str)` refuses whatever its length."""
    numerator, slash, denominator = text.partition("/")
    try:
        if slash:
            # no space around the slash, no sign on the denominator
            if numerator != numerator.rstrip() or not denominator[:1].isdigit():
                return None
            return Fraction(parse_int(numerator), parse_int(denominator))
        number = Decimal(text)
    except (ValueError, InvalidOperation):
        return None
    return Fraction(number) if number.is_finite() else None


def check_count(name: str, value) -> None:
    """A length, count or weight must be a non-negative `int`; a `bool` or
    any other type raises `ValueError`."""
    if type(value) is not int or value < 0:
        shown = int_text(value) if type(value) is int else repr(value)
        raise ValueError(f"{name} must be a non-negative int, got {shown}")


def checked_max(weights: Sequence[int], declared_max: int | None = None) -> int:
    """The largest of `weights` (0 for none), after the ingress rule: each is
    a non-negative `int` (not a `bool`), at most `declared_max` if given. A
    list that fails the whole-list test is scanned, so its first bad weight
    raises."""
    # `min` and `max` compare the weights only once they are known to be ints
    # (counted with `countOf`, which is cheaper than a set of their types)
    if countOf(map(type, weights), int) == len(weights) and min(weights, default=0) >= 0:
        top = max(weights, default=0)
        if declared_max is None or top <= declared_max:
            return top
    # the whole-list test failed, so the first bad weight raises here
    for weight in weights:
        if type(weight) is not int or weight < 0:
            shown = int_text(weight) if type(weight) is int else repr(weight)
            raise ValueError(f"weights must be non-negative integers, got {shown}")
        if declared_max is not None and weight > declared_max:
            raise DeclaredBoundError(
                f"element {int_text(weight)} exceeds declared maximum weight "
                f"{int_text(declared_max)}"
            )


def floor_fraction(value: Fraction) -> int:
    return value.numerator // value.denominator


def ceil_fraction(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def check_block_count(num_blocks, keeps_separators: bool = False) -> None:
    """A block count must be an int of at least 2 and, for a caller that
    `keeps_separators`, small enough that its num_blocks + 1 separators can
    be indexed; anything else raises `ValueError`."""
    if type(num_blocks) is not int:
        raise ValueError(f"block count must be an int, got {num_blocks!r}")
    if num_blocks < 2:
        raise ValueError(f"block count must be at least 2, got {int_text(num_blocks)}")
    if keeps_separators and num_blocks >= sys.maxsize:
        raise ValueError(
            f"block count {int_text(num_blocks)} is too large to index its separators"
        )


def validate_partitioning(length: int, num_blocks: int, separators: Sequence[int]) -> str | None:
    """Return None if the separators form a valid partitioning, else the first violation."""
    try:
        check_block_count(num_blocks)
    except ValueError as exc:
        return str(exc)
    if len(separators) != num_blocks + 1:
        return f"expected {int_text(num_blocks + 1)} separators, got {len(separators)}"
    for k, separator in enumerate(separators):
        if type(separator) is not int:  # a bool, a float or a str is no index
            return f"separator s_{k} must be an int, got {separator!r}"
    if separators[0] != 1:
        return f"first separator must be 1, got {int_text(separators[0])}"
    if separators[-1] != length + 1:
        return f"last separator must be {int_text(length + 1)}, got {int_text(separators[-1])}"
    for k in range(1, len(separators)):
        if separators[k] < separators[k - 1]:
            return (
                f"separators must be non-decreasing: "
                f"s_{k}={int_text(separators[k])} < s_{k - 1}={int_text(separators[k - 1])}"
            )
    return None


def check_partitioning(length: int, num_blocks: int, separators: Sequence[int]) -> None:
    problem = validate_partitioning(length, num_blocks, separators)
    if problem is not None:
        raise InvalidPartitioningError(problem)


def block_weights(weights: Sequence[int], separators: Sequence[int]) -> list[int]:
    """Per-block sums for a valid partitioning of `weights`."""
    checked_max(weights)
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
                f"total weight {int_text(self.total_weight)} exceeds "
                f"length * max = {int_text(self.length * self.max_weight)}"
            )
        if self.length >= 1 and self.max_weight > self.total_weight:
            raise ValueError(
                f"max weight {int_text(self.max_weight)} exceeds "
                f"total weight {int_text(self.total_weight)}"
            )
        if self.length == 0 and (self.max_weight or self.total_weight):
            raise ValueError("empty stream must have zero max and total")

    @classmethod
    def from_weights(cls, weights: Sequence[int]) -> "StreamStats":
        return cls(
            length=len(weights),
            max_weight=checked_max(weights),
            total_weight=sum(weights),
        )


# Elements per chunk of a pass (see `feasibility._drive`); the text parser
# cuts its chunks to this size too.
B = 4096

# characters of text the parser reads at a time
READ_BLOCK = 1 << 13

# tokens the parser splits a block into at a time (`_read_block`), and
# weights of a chunk `feasibility._drive` turns into prefix sums at a time
SLICE = B // 16

# the whitespace `bytes.split()` splits on, and `bytes.strip()` and `int`
# strip from bytes, as str and as bytes
_SPACE = " \t\n\r\x0b\x0c"
_BYTES_SPACE = _SPACE.encode()

# `int` strips from str the whitespace `str.strip()` strips but the ASCII
# separators \x1c-\x1f, which it refuses: this maps them to a non-digit
_NO_INT_SPACE = dict.fromkeys(range(0x1C, 0x20), "x")

# the ints below 2**10, keyed by their canonical decimal text as ASCII bytes
# (text meets it as an ASCII block's bytes): `_convert` looks a token up here
# before it calls `int`. Built at import, so that no parse pays for it.
_SMALL_BYTES = {str(value).encode(): value for value in range(1 << 10)}


def int_text(value: int | Fraction) -> str:
    """`str(value)` for an int or a Fraction of any size: past CPython's
    digit limit for `str`, `decimal` writes an int's digits, and a
    Fraction's numerator and denominator, exactly."""
    try:
        return str(value)
    except ValueError:
        pass
    if type(value) is int:
        return str(Decimal(value))
    numerator = int_text(value.numerator)
    return numerator if value.denominator == 1 else f"{numerator}/{int_text(value.denominator)}"


def parse_int(text: str | bytes) -> int:
    """`int(text)` of str or bytes, also past CPython's digit limit: there
    the text `int` reads with no limit (an optional sign, then decimal
    digits with single underscores between them, inside the whitespace
    `int` strips) is read exactly with `decimal`, and any other text raises
    `int`'s `ValueError`."""
    try:
        return int(text)
    except ValueError:
        if type(text) is bytes:
            body = text.strip().decode("latin-1")  # a byte past ASCII is no digit
        else:
            body = text.translate(_NO_INT_SPACE).strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not all(map(str.isdecimal, digits.split("_"))):
            raise
    return int(Decimal(body))


# argparse names a `type=` function in its message: "invalid int value: ..."
parse_int.__name__ = "int"


def _first_bad(tokens: list[str]) -> str | None:
    """Cut a str slice, the fallback's, at its first token that is not a
    decimal integer, and return that token (None when there is none): one
    check covers a slice of valid tokens, and only a slice that fails it is
    scanned token by token."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        for cut, token in enumerate(tokens):
            if not (token.isascii() and token.isdigit()):
                del tokens[cut:]
                return token
    return None


def _convert(tokens: list[str] | list[bytes], weights: list[int], convert: Callable | None
             ) -> Callable | None:
    """Append to `weights` the ints of one slice's `tokens`, decimal
    integers as ASCII bytes or as str, read by `convert`, the rung of the
    block's ladder that the slice starts on (None for a bytes block's first
    slice); return the rung the next slice starts on.

    A block climbs a one-way ladder of converters: a lookup in the table of
    small ints, then `int`, then `parse_int`; a str block, and a block
    whose first token is no key of the table, start at `int`. The ints are
    appended as they are read, so a rung that raises leaves those of the
    tokens before it in `weights`, and the next rung reads the slice from
    that token on: `int` from the first token that is no key of the table,
    so a miss wastes no lookup and no `int` call, and `parse_int` from the
    first token past CPython's int() digit limit. The table holds
    `int(key)` at each key, so every rung gives the same ints.
    """
    if not tokens:
        return convert
    if convert is None:
        convert = _SMALL_BYTES.__getitem__ if tokens[0] in _SMALL_BYTES else int
    start = len(weights)
    rest = tokens
    while True:
        try:
            weights.extend(map(convert, rest))
            return convert
        except KeyError:  # a token that is no key of the table
            convert = int
        except ValueError:  # past CPython's int() digit limit
            if convert is parse_int:
                raise
            convert = parse_int
        rest = tokens[len(weights) - start:]


def _read_block(reader: IO[str] | IO[bytes], pending: str | tuple[str, str | bytes, bool]
                ) -> tuple[list[int], str | None, str | tuple[str, str | bytes, bool], bool]:
    """Read the next block of `reader` after `pending`, the token carried
    from the block before, or that token, this block's text or its start
    when it was read already, and whether the block reads the rest of its
    text after that start. Return the weights of the two up to the first
    bad token; that token, or None; what the next block starts from, which
    is the last token when it runs to the block's end and so may go on in
    the next block, or "", with the next block's text or its start when it
    was read; and whether the stream has ended.

    A block that ends inside a token may have reached the end of the text,
    so it reads once more before it carries the token. After a read
    shorter than asked that is the read the next block would have made, as
    a reader that fills its reads returns a short read only at the end, and
    it is the next block's text. After a full read it is one character, the
    start of the next block's text. An empty read ends the stream, and the
    token is the block's last weight; after a full read, a whitespace
    character of `_SPACE` ends the token, which stays in this block; any
    other text is carried with the token, so no block's text moves and a
    decode error names the same position. One case still leaves the text's
    last token a block, and a chunk, of its own: a full read that ends
    inside it with more of it to come.

    The block is split `SLICE` tokens at a time: `split(None, SLICE)` cuts
    only at whitespace, so it gives one slice's tokens and the unsplit rest
    of the block, which becomes the text the next slice is split from. Each
    slice is converted onto the block's list of weights and let go before
    the next is split, so that no more than one slice's tokens are alive,
    and the conversion ladder is carried from slice to slice. ASCII text
    is read as bytes from either reader: a str block is joined with the
    carried token, which may not be ASCII, and encoded if the two are. A
    text of ASCII digits and the whitespace `bytes.split` splits on has the
    tokens of its str, so one `isdigit()` over it less that whitespace
    (`bytes.translate`, which holds no buffer per token) lets `_convert`
    read its slices. Any other text (not ASCII, a control character that
    `str.split` splits on and `bytes.split` does not, or a token that is no
    integer) is read as str, a bytes block decoded alone, so that a decode
    error names the byte's position in the block (its carried token is
    ASCII); there `_first_bad` cuts each slice at its first bad token, and
    the ladder starts at `int`.
    """
    if type(pending) is tuple:
        pending, text, begun = pending
        if begun and len(text) < READ_BLOCK:
            text += reader.read(READ_BLOCK - len(text))
    else:
        text = reader.read(READ_BLOCK)
    short, at_end = len(text) < READ_BLOCK, not text
    if type(text) is str:
        text = pending + text
        if text.isascii():
            text = text.encode()
    elif pending:
        text = pending.encode() + text
    if type(text) is bytes and not text.translate(None, _BYTES_SPACE).isdigit():
        text = pending + text[len(pending):].decode("ascii")
    checked = type(text) is bytes  # its digits were checked whole above
    # the last token may go on in the next block unless whitespace ends this one
    open_end = not at_end and not text[-1:].isspace()
    after = None
    if open_end:
        after = reader.read(READ_BLOCK if short else 1)
        open_end, at_end = bool(after), not after
        if open_end and not short:
            # whitespace that text splits on from either reader
            open_end = after[:1] not in (_BYTES_SPACE if type(after) is bytes else _SPACE)
            if type(after) is bytes and len(after) == 1:
                # CPython's shared object of that byte, as a text reader's
                # character is: a raw read's new one would stay alive beside
                # the walk and the next block's text
                after = bytes([after[0]])
    weights: list[int] = []
    convert, bad = None if checked else int, None
    last = ""
    while text and bad is None:
        tokens = text.split(None, SLICE)
        text = tokens.pop() if len(tokens) > SLICE else text[:0]
        if open_end and not text:
            last = tokens.pop().decode() if checked else tokens.pop()
        if not checked:
            bad = _first_bad(tokens)
        convert = _convert(tokens, weights, convert)
        del tokens  # before the next slice is split
    return weights, bad, (last, after, not short) if after else last, at_end


def _parse_chunks(reader: IO[str] | IO[bytes]) -> Iterator[list[int]]:
    """Lists of at most `B` weights from whitespace-separated decimal text,
    read `READ_BLOCK` characters, or bytes of ASCII text, at a time.

    A token that is not a non-negative decimal integer raises `ValueError`
    after the weights before it are yielded, so a reader that checks each
    chunk reports the first bad element in stream order. Every chunk holds
    at least one weight, and only non-negative ints.
    """
    pending = ""
    while True:
        weights, bad, pending, at_end = _read_block(reader, pending)
        # READ_BLOCK characters hold at most B tokens, but the token carried
        # into them makes B + 1, and a reader may return more characters
        # than it is asked for
        while len(weights) > B:
            yield weights[:B]
            del weights[:B]
        if weights:
            yield weights
        # the chunk, which `_drive` turns into its prefix sums, is walked
        # while this frame waits, holding no text but a carried token and
        # the text a short read, or the character a full one, read after
        # it, if any; it lets the chunk go before the next block is read,
        # so that the pass holds one list per block or chunk, besides one
        # slice's tokens and the block's text while it is split
        del weights
        if bad is not None:
            raise ValueError(f"invalid weight token {bad!r}: expected a non-negative integer")
        if at_end:
            return


class WeightChunks:
    """A weight stream held as chunks that are already checked: parsed from
    text, or cut from a list that has passed `checked_max`.

    The reader is a text reader or a binary one, whose bytes are read as
    ASCII text. Iterating it yields the weights one by one, so it is a
    stream like any other; `feasibility._drive` reads its chunks, non-empty
    lists of at most `B` non-negative ints, as they are, trusts them to
    hold nothing else, and owns them: it empties each as it builds its
    prefix sums.
    """

    __slots__ = ("chunks",)

    def __init__(self, reader: IO[str] | IO[bytes]) -> None:
        self.chunks = _parse_chunks(reader)

    @classmethod
    def of_checked(cls, weights: list[int]) -> "WeightChunks":
        """The stream of `weights`, a list that has already passed
        `checked_max`, in slices of `B` (the last one shorter), so that
        `_drive` cuts it where it would cut `iter(weights)` and does not
        check it again. Each slice is a new list, which `_drive` owns and
        empties as it builds its prefix sums; `weights` is never changed."""
        stream = cls.__new__(cls)
        stream.chunks = (weights[start:start + B] for start in range(0, len(weights), B))
        return stream

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.chunks)


def iter_weights(stream: IO[str] | IO[bytes]) -> Iterator[int]:
    """Yield weights from whitespace-separated decimal text, 8 KiB at a time."""
    return iter(WeightChunks(stream))


def parse_weights(text: str) -> list[int]:
    return list(iter_weights(io.StringIO(text)))


def format_weights(weights: Sequence[int]) -> str:
    return " ".join(map(int_text, weights))
