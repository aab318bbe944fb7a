"""One-pass greedy feasibility test for a fixed bottleneck bound.

The test packs elements into maximal blocks: an element joins the current
block while the block sum stays within the floored bound, otherwise it opens
the next block and its index is recorded as a separator. The test fails the
moment a single element exceeds the floored bound, or the moment an element
would open one block more than allowed. Success for integer bounds is
exactly equivalent to the bound being at least the offline optimum, which is
what makes racing several of these instances a search procedure.

The module also holds what every entry point shares: `checked_args` (block
count, mode, epsilon), `_drive` (the one weight ingress) and `greedy_cuts`,
the same packing over a whole list's prefix sums.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .core import DeclaredBoundError, SpaceMeter, as_fraction, floor_fraction

# element index, block ordinal, block weight, threshold
PROBE_STATE_WORDS = 4

PART_MODE = "part"
PARTB_MODE = "partb"


class ProbeFailure(Enum):
    ELEMENT_EXCEEDS_THRESHOLD = "element-exceeds-threshold"
    PARTITIONS_EXHAUSTED = "partitions-exhausted"


@dataclass(frozen=True)
class ProbeOutcome:
    success: bool
    failure: ProbeFailure | None = None
    separators: tuple[int, ...] | None = None


def checked_args(
    num_blocks: int, mode: str = PART_MODE, epsilon=None, *, needs_epsilon: bool = False
) -> Fraction | None:
    """Validate the arguments every public entry point shares; return
    epsilon as a Fraction (a float epsilon is refused by `as_fraction`)."""
    if mode not in (PART_MODE, PARTB_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    if type(num_blocks) is not int:
        raise ValueError(f"block count must be an int, got {num_blocks!r}")
    if num_blocks < 2:
        raise ValueError(f"block count must be at least 2, got {num_blocks}")
    if epsilon is None:
        if needs_epsilon:
            raise ValueError("epsilon is required for the approximation solvers")
        return None
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def pad_separators(interior: Sequence[int], num_blocks: int, length: int) -> tuple[int, ...]:
    """Full separator tuple from the recorded block openings; blocks that
    were never opened are empty and sit past the stream end."""
    return (1, *interior, *([length + 1] * (num_blocks - len(interior))))


def greedy_cuts(
    prefix: Sequence[int], threshold: int, num_blocks: int
) -> list[int] | ProbeFailure:
    """Greedy maximal packing of a whole list, given its prefix sums
    (``prefix[0] = 0``, ``prefix[k]`` = sum of the first k elements).

    Returns the 1-based indices of the elements that open blocks 2, 3, ...,
    or the `ProbeFailure` a `ProbeInstance` with the same threshold would
    report. Each block costs one binary search.
    """
    length = len(prefix) - 1
    cuts: list[int] = []
    end = 0  # elements 1..end are packed
    while True:
        end = bisect_right(prefix, prefix[end] + threshold, end) - 1
        if end == length:
            return cuts
        if prefix[end + 1] - prefix[end] > threshold:
            return ProbeFailure.ELEMENT_EXCEEDS_THRESHOLD
        if len(cuts) == num_blocks - 1:
            return ProbeFailure.PARTITIONS_EXHAUSTED
        cuts.append(end + 1)


class ProbeInstance:
    """Feasibility state machine for one bound.

    `bound` may be any non-negative rational; behaviour depends only on its
    floor. In separator-storing mode the instance records, for each block
    after the first, the index of the element that opened it.
    """

    __slots__ = (
        "bound",
        "threshold_floor",
        "num_blocks",
        "block_ordinal",
        "block_weight",
        "next_index",
        "separators",
        "failure",
    )

    def __init__(
        self,
        bound,
        num_blocks: int,
        *,
        store_separators: bool = True,
        meter: SpaceMeter | None = None,
    ) -> None:
        checked_args(num_blocks)
        bound = as_fraction(bound)
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        self.bound: Fraction = bound
        self.threshold_floor = floor_fraction(bound)
        self.num_blocks = num_blocks
        self.block_ordinal = 1
        self.block_weight = 0
        self.next_index = 1
        self.separators: list[int] | None = [] if store_separators else None
        self.failure: ProbeFailure | None = None
        if meter is not None:
            # separator storage is reserved up front: one word per boundary
            extra = num_blocks - 1 if store_separators else 0
            meter.charge(PROBE_STATE_WORDS + extra)

    @property
    def alive(self) -> bool:
        return self.failure is None

    # apart from ProbeExtInstance.feed: one inherited feed ran known-m-grid ~21% slower
    def feed(self, weight: int) -> None:
        if self.failure is not None:
            raise RuntimeError("cannot feed a failed probe instance")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        threshold = self.threshold_floor
        if weight > threshold:
            self.failure = ProbeFailure.ELEMENT_EXCEEDS_THRESHOLD
        elif self.block_weight + weight <= threshold:
            self.block_weight += weight
        elif self.block_ordinal < self.num_blocks:
            # this element opens the next block; its index is the separator
            if self.separators is not None:
                self.separators.append(self.next_index)
            self.block_ordinal += 1
            self.block_weight = weight
        else:
            self.failure = ProbeFailure.PARTITIONS_EXHAUSTED
        self.next_index += 1

    def finish(self, length: int | None = None) -> ProbeOutcome:
        """Close the pass; unused separators are padded past the stream end."""
        fed = self.next_index - 1
        if length is not None and length != fed:
            raise ValueError(f"stream length mismatch: fed {fed} elements, caller says {length}")
        if self.failure is not None:
            return ProbeOutcome(False, failure=self.failure)
        if self.separators is None:
            return ProbeOutcome(True)
        separators = pad_separators(self.separators, self.num_blocks, fed)
        return ProbeOutcome(True, separators=separators)


def probe_run(
    stream: Iterable[int],
    bound,
    num_blocks: int,
    *,
    mode: str = PART_MODE,
    meter: SpaceMeter | None = None,
) -> ProbeOutcome:
    """Run a single probe over a whole stream.

    The stream is read to its end, and every weight checked, even after the
    probe has failed.
    """
    checked_args(num_blocks, mode)
    instance = ProbeInstance(
        bound, num_blocks, store_separators=(mode == PART_MODE), meter=meter
    )
    _drive(stream, [instance], [])
    return instance.finish()


def _drive(
    stream: Iterable[int],
    probes: list[ProbeInstance],
    unfailing: list,
    declared_max: int | None = None,
) -> tuple[int, int, int]:
    """The one ingress for weights: validate each weight and feed it to every
    live probe and every never-failing instance (anything with a `feed`
    method), in one pass; return (length, total, max)."""
    length = 0
    total = 0
    biggest = 0
    live = list(probes)
    for weight in stream:
        if type(weight) is not int or weight < 0:
            raise ValueError(f"weights must be non-negative integers, got {weight!r}")
        if declared_max is not None and weight > declared_max:
            raise DeclaredBoundError(
                f"element {weight} exceeds declared maximum weight {declared_max}"
            )
        length += 1
        total += weight
        if weight > biggest:
            biggest = weight
        # two loops, not one over both lists: a single mixed loop was slower
        lost = False
        for instance in live:
            instance.feed(weight)
            if instance.failure is not None:
                lost = True
        if lost:
            live = [inst for inst in live if inst.failure is None]
        for instance in unfailing:
            instance.feed(weight)
    return length, total, biggest


def greedy_maximality_check(weights: Sequence[int], outcome: ProbeOutcome, bound) -> bool:
    """True iff every recorded separator closed a maximal block.

    A block is maximal when adding the element that opened the next block
    would have pushed it past the floored bound.
    """
    if not outcome.success or outcome.separators is None:
        raise ValueError("maximality check needs a successful separator-storing outcome")
    threshold = floor_fraction(as_fraction(bound))
    length = len(weights)
    separators = outcome.separators
    for k in range(1, len(separators) - 1):
        boundary = separators[k]
        if boundary > length:
            continue  # padding: no block was opened here
        opened_weight = sum(weights[separators[k - 1] - 1 : boundary - 1])
        if opened_weight + weights[boundary - 1] <= threshold:
            return False
    return True
