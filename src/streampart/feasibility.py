"""One-pass greedy feasibility test for a fixed bottleneck bound.

The test packs elements into maximal blocks: an element joins the current
block while the block sum stays within the floored bound, otherwise it opens
the next block and its index is recorded as a separator. The test fails the
moment a single element exceeds the floored bound, or the moment an element
would open one block more than allowed. Success for integer bounds is
exactly equivalent to the bound being at least the offline optimum, which is
what makes racing several of these instances a search procedure. Success is
also monotone in the floor on every prefix: when a floor fails, every lower
floor has failed too.

The packing has one home, `_Walker.walk`: it advances an instance over the
prefix sums of a chunk of the stream with one binary search per block the
chunk reaches, and resumes where it stopped on the next chunk (the
"chains-on-chains" probe of Han, Narahari & Choi and of Pinar & Aykanat,
made resumable). `_drive` is the one reader of a stream: it reads `B`
elements at a time, checks each chunk with `core.checked_max`, the one
ingress rule (a chunk of a `core.WeightChunks`, which can hold only
non-negative ints, only against the declared maximum), and builds each
chunk's prefix sums once for its live walkers, one machine word each
unless a sum could pass 2**64 - 1 (`_prefix_sums`).
A walker need not be one instance: the grid solvers race their probes and
escalators as one walker (`schedulers._Race`), which walks each chunk when
the next one comes and uses the monotony to walk only a few of the probes
that die in it. The last chunk is walked after the pass, only as far as the
answer reads: the lowest surviving floor, found by a binary search, and the
escalators only if no floor survived. The oracle asks the same walk for a
whole list, its prefix sums held the same way: one chunk, from a fresh
`ProbeInstance`. The module also holds
`checked_args` (block count, mode, epsilon), which every entry point shares,
and `sandwich`, the interval that holds a stream's optimum, which bounds
both the race's search and the oracle's.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

from .core import (B, SLICE, WeightChunks, as_fraction, check_block_count, checked_max,
                   floor_fraction, int_text)

PART_MODE = "part"
PARTB_MODE = "partb"
MODES = (PART_MODE, PARTB_MODE)

# A chunk of B elements costs every instance walked over it one call plus one
# binary search per block it reaches. The model bound of its buffer is B
# weights and B + 1 prefix sums, a word each; the process holds the sums as
# machine words (an `array('Q')`) unless one could pass 2**64 - 1, and lets
# the weights go a slice at a time as their sums are built.
BUFFER_WORDS = 2 * B + 1


class ProbeFailure(Enum):
    ELEMENT_EXCEEDS_THRESHOLD = "element-exceeds-threshold"
    PARTITIONS_EXHAUSTED = "partitions-exhausted"


@dataclass(frozen=True)
class ProbeOutcome:
    success: bool
    failure: ProbeFailure | None = None
    separators: tuple[int, ...] | None = None


def checked_args(num_blocks: int, mode: str = PART_MODE, epsilon=None) -> Fraction | None:
    """Validate the arguments every public entry point shares; return
    epsilon as a Fraction (a float epsilon is refused by `as_fraction`)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    check_block_count(num_blocks, mode == PART_MODE)
    if epsilon is None:
        return None
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {int_text(epsilon)}")
    return epsilon


def sandwich(total: int, biggest: int, num_blocks: int) -> tuple[int, int]:
    """The closed interval ``[max(ceil(S/p), m), floor((S + (p-1)*m) / p)]``
    that holds the optimum bottleneck of a stream of total S and largest
    weight m in p = `num_blocks` blocks. A probe below the low end cannot
    hold S in p blocks, or cannot hold m. A probe at the high end or above
    succeeds: had it failed at floor f, each of its p full blocks plus the
    element after it would weigh at least f + 1, so p(f + 1) <= S + (p-1)m."""
    return (max(-(-total // num_blocks), biggest),
            (total + (num_blocks - 1) * biggest) // num_blocks)


def pad_separators(interior: Sequence[int], num_blocks: int, length: int) -> tuple[int, ...]:
    """Full separator tuple from the recorded block openings; blocks that
    were never opened are empty and sit past the stream end."""
    return (1, *interior, *([length + 1] * (num_blocks - len(interior))))


class _Walker:
    """Greedy maximal packing that resumes from one chunk to the next.

    It carries the floored threshold, the open block's ordinal and weight,
    the stream index of the next element and, when storing separators, the
    index of each element that opened a block. What happens to an element
    that fits neither the open block nor a new one is the subclass's
    `_cannot_place`: a probe fails, an escalator merges blocks.
    """

    STATE_WORDS: int  # words of scalar state, set by each subclass

    __slots__ = (
        "threshold_floor",
        "num_blocks",
        "block_ordinal",
        "block_weight",
        "next_index",
        "separators",
        "failure",
    )

    def __init__(self, threshold_floor: int, num_blocks: int, store_separators: bool) -> None:
        self.threshold_floor = threshold_floor
        self.num_blocks = num_blocks
        self.block_ordinal = 1
        self.block_weight = 0
        self.next_index = 1
        # the index of each element that opened a block, one machine word
        # each (an index is at most n + 1)
        self.separators: array | None = array("Q") if store_separators else None
        self.failure: ProbeFailure | None = None

    @classmethod
    def words_for(cls, num_blocks: int, store_separators: bool) -> int:
        """Model-level working state in machine words: one word per counter
        or threshold, and, when separators are stored, one reserved up front
        per boundary. A word holds any index up to n + 1 or any weight up to
        the stream total; this is not process memory."""
        return cls.STATE_WORDS + (num_blocks - 1 if store_separators else 0)

    @property
    def words(self) -> int:
        """This instance's `words_for`."""
        return self.words_for(self.num_blocks, self.separators is not None)

    def walk(self, prefix: Sequence[int], top: int) -> bool:
        """Advance over the next chunk of the stream, given its prefix sums
        (``prefix[0] = 0``) and its largest weight, which the packing does
        not need; return whether the instance is still alive.

        Each block the chunk reaches costs one `bisect_right`, which finds
        the last element that still fits the open block.
        """
        threshold = self.threshold_floor
        blocks = self.num_blocks
        ordinal = self.block_ordinal
        separators = self.separators
        first = self.next_index  # stream index of the chunk's first element
        last = len(prefix) - 1
        # the open block holds the chunk's elements up to `end` less `origin`:
        # its weight from earlier chunks counts as a negative origin
        origin = -self.block_weight
        end = 0
        while True:
            end = bisect_right(prefix, origin + threshold, end) - 1
            if end == last:
                break
            element = prefix[end + 1] - prefix[end]
            if element <= threshold and ordinal < blocks:
                # this element opens the next block; its index is the separator
                if separators is not None:
                    separators.append(first + end)
                ordinal += 1
                origin = prefix[end]
            else:
                self.block_ordinal = ordinal
                self.block_weight = prefix[end] - origin
                if not self._cannot_place(first + end, element):
                    self.next_index = first + end + 1
                    return False
                threshold = self.threshold_floor
                ordinal = self.block_ordinal
                separators = self.separators
                origin = prefix[end + 1] - self.block_weight
            end += 1
        self.block_ordinal = ordinal
        self.block_weight = prefix[last] - origin
        self.next_index = first + last
        return True

    def _cannot_place(self, index: int, element: int) -> bool:
        """Element `index` fits neither the open block nor a new one: place
        it and return True, or record the failure and return False."""
        raise NotImplementedError

    def _close(self, length: int | None) -> tuple[int, ...] | None:
        """Close the pass: check the caller's length against the elements
        fed and return the separators padded past the stream end, or None
        when none are stored."""
        fed = self.next_index - 1
        if length is not None and length != fed:
            raise ValueError(f"stream length mismatch: fed {fed} elements, "
                             f"caller says {int_text(length)}")
        if self.separators is None:
            return None
        return pad_separators(self.separators, self.num_blocks, fed)


class ProbeInstance(_Walker):
    """Feasibility state machine for one bound.

    `bound` may be any non-negative rational; behaviour depends only on its
    floor, which is all the instance keeps. In separator-storing mode the
    instance records, for each block after the first, the index of the
    element that opened it.
    """

    __slots__ = ()
    # element index, block ordinal, block weight, threshold
    STATE_WORDS = 4

    def __init__(self, bound, num_blocks: int, *, store_separators: bool = True) -> None:
        check_block_count(num_blocks, store_separators)
        if type(bound) is not int:  # an int bound is its own floor: no Fraction needed
            bound = as_fraction(bound)
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {int_text(bound)}")
        super().__init__(floor_fraction(bound), num_blocks, store_separators)

    @property
    def alive(self) -> bool:
        return self.failure is None

    def feed(self, weight: int) -> None:
        """Take one weight: a one-element chunk through `_drive`."""
        if self.failure is not None:
            raise RuntimeError("cannot feed a failed probe instance")
        _drive((weight,), [self])

    def _cannot_place(self, index: int, element: int) -> bool:
        if element > self.threshold_floor:
            self.failure = ProbeFailure.ELEMENT_EXCEEDS_THRESHOLD
        else:
            self.failure = ProbeFailure.PARTITIONS_EXHAUSTED
        return False

    def finish(self, length: int | None = None) -> ProbeOutcome:
        """Close the pass; unused separators are padded past the stream end."""
        separators = self._close(length)
        if self.failure is not None:
            return ProbeOutcome(False, failure=self.failure)
        return ProbeOutcome(True, separators=separators)


def probe_run(
    stream: Iterable[int], bound, num_blocks: int, *, mode: str = PART_MODE
) -> ProbeOutcome:
    """Run a single probe over a whole stream.

    The stream is read to its end, and every weight checked, even after the
    probe has failed.
    """
    checked_args(num_blocks, mode)
    instance = ProbeInstance(bound, num_blocks, store_separators=(mode == PART_MODE))
    _drive(stream, [instance])
    return instance.finish()


def _chunked(source: Iterator[int]) -> Iterator[list[int]]:
    """Lists of `B` elements of `source`, the last one shorter. When
    `source` raises, the elements read before it are yielded first and
    then the error is raised, so a reader that checks each list reports the
    first bad element in stream order."""
    while True:
        chunk: list[int] = []
        try:
            chunk.extend(islice(source, B))
        except Exception:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _trusted_max(chunk: list[int], declared_max: int | None) -> int:
    """`core.checked_max` of one of a `WeightChunks`' chunks, which are
    never empty and hold only non-negative ints: their `max`, and the rescan
    only when it passes `declared_max`."""
    top = max(chunk)
    if declared_max is not None and top > declared_max:
        checked_max(chunk, declared_max)
    return top


def _sum_buffer(top: int, length: int) -> array | list[int]:
    """A buffer for the prefix sums of `length` weights of at most `top`,
    holding its first sum, 0: one machine word per sum, an `array('Q')`,
    unless a sum could pass 2**64 - 1, and then a list of ints."""
    return [0] if top * length >> 64 else array("Q", (0,))


def _prefix_sums(chunk: list[int], top: int) -> array | list[int]:
    """The prefix sums of `chunk`, whose largest weight is `top`
    (``prefix[0] = 0``), in a `_sum_buffer`. They are built `SLICE` weights
    at a time, each slice deleted from `chunk` once its sums are made, so
    that the weights go as their sums come; `chunk` ends empty."""
    prefix = _sum_buffer(top, len(chunk))
    while chunk:
        # each slice starts from the last sum of the one before
        prefix.extend(accumulate(chunk[:SLICE], initial=prefix.pop()))
        del chunk[:SLICE]
    return prefix


def _drive(
    stream: Iterable[int], walkers: Sequence[_Walker] = (), declared_max: int | None = None
) -> tuple[int, int, int]:
    """Read the stream `B` elements at a time, check every weight and
    advance every live walker over each chunk's prefix sums, in one pass;
    return (length, total, max).

    A `WeightChunks` stream is read as its lists, the parser's or those cut
    from a list that has passed `checked_max`, and trusted: they are never
    empty and hold only non-negative ints, so only their `max` is taken and
    compared with `declared_max`. Any other stream is collected
    into lists of `B` by `_chunked`, and each is checked whole by
    `core.checked_max`. Either way a chunk that breaks the rule is rescanned
    by `checked_max`, so the first bad element raises, as it would one
    element at a time. A walker is anything whose `walk(prefix, top)`,
    given a chunk's prefix sums and largest weight, returns whether it is
    still alive: a `_Walker`, the grid solvers' race or the
    unknown-knowledge solver. Every walker given is live; one that returns
    False is not walked again.

    `_drive` owns every chunk it reads: the parser's lists, the slices
    `WeightChunks.of_checked` cuts and `_chunked`'s lists are all new, never
    a caller's list. While a walker is live it builds each chunk's prefix
    sums with `_prefix_sums`, which empties the chunk as it goes, and lets
    the sums go once the walkers have had them, before the next chunk is
    read.
    """
    if isinstance(stream, WeightChunks):
        chunks, check = stream.chunks, _trusted_max
    else:
        chunks, check = _chunked(iter(stream)), checked_max
    live = list(walkers)
    length = 0
    total = 0
    biggest = 0
    for chunk in chunks:
        top = check(chunk, declared_max)
        length += len(chunk)
        if top > biggest:
            biggest = top
        if live:
            prefix = _prefix_sums(chunk, top)
            total += prefix[-1]
            live = [walker for walker in live if walker.walk(prefix, top)]
            del prefix
        else:
            total += sum(chunk)
        del chunk
    return length, total, biggest
