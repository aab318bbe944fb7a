"""Single-pass solvers: race feasibility instances over one stream and
report the best feasible bottleneck for the declared knowledge regime.

Four regimes are supported, each reading the stream exactly once:

* total weight known: geometric candidate grid from total/blocks upward;
* maximum and length known: geometric grid from the maximum upward;
* maximum known: a doubling-and-ratio probe grid raced together with a set
  of escalating instances, covering both small and large optima;
* nothing known: a self-adjusting 2-approximation (with separators) or a
  closed-form bound (value only).

All candidate bounds are exact rationals and all feasibility floors are
computed exactly, so a reported bottleneck is never below the optimum.
Declared knowledge is verified against the stream after the pass; lying is
reported as an error instead of an unsound result.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .core import KnowledgeMismatchError, as_fraction, ceil_fraction, check_count, int_text
from .feasibility import (
    BUFFER_WORDS,
    PART_MODE,
    PARTB_MODE,
    B,
    ProbeInstance,
    _drive,
    _Walker,
    checked_args,
    pad_separators,
    sandwich,
)
from .probe_ext import ProbeExtInstance

KNOWN_TOTAL_TAG = "known-S"
KNOWN_MAX_LENGTH_TAG = "known-mn"
KNOWN_MAX_TAG = "known-m"
UNKNOWN_TAG = "unknown-2approx"

# the ratio guarantee of solve_known_max is only established below this
EPSILON_GUARANTEE_LIMIT = Fraction(1, 64)
WARN_EPSILON_RANGE = "epsilon-outside-established-guarantee"
# `growth_steps` refuses a count whose exact powers would pass this many bits
GROWTH_POWER_BITS = 1 << 25

# element counter, running total, running max
UNKNOWN_VALUE_DRIVER_WORDS = 3
# element counter, running total, running max, bound and smallest adjacent-pair
# sum (5 words), then p - 1 interior block starts (block 1 starts at 1) and p
# block weights: 5 + (p - 1) + p = 4 + 2p
UNKNOWN_PART_DRIVER_WORDS = 4
# the race (`_Race`) holds the chunk it has not walked yet, beside the chunk
# being read: its B + 1 prefix sums and its largest weight
RACE_BUFFER_WORDS = BUFFER_WORDS + B + 2


@dataclass(frozen=True)
class KnowledgeProfile:
    """What the caller declares about the stream before the pass."""

    max_weight: int | None = None
    length: int | None = None
    total_weight: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_weight", "length", "total_weight"):
            value = getattr(self, name)
            if value is not None:
                check_count(f"declared {name}", value)


@dataclass
class SolveResult:
    mode: str
    algorithm: str
    bottleneck: Fraction
    separators: tuple[int, ...] | None
    merges: int | None
    instance_count: int
    space_peak_words: int
    elements_read: int
    epsilon: Fraction | None
    warning_flags: tuple[str, ...] = ()
    # grid detail of the racing solvers (probes, escalators); not serialized
    probe_instances: int | None = None
    probe_ext_instances: int | None = None
    # words of the pass's buffers, constant in the stream length: the chunk
    # being read, B weights plus B + 1 prefix sums while a walker is live
    # (every mode but unknown partb), and for the grid solvers the race's
    # held chunk (RACE_BUFFER_WORDS); not serialized
    buffer_words: int = 0

    @property
    def bottleneck_ceil(self) -> int:
        return ceil_fraction(self.bottleneck)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "algorithm": self.algorithm,
            "bottleneck_num": self.bottleneck.numerator,
            "bottleneck_den": self.bottleneck.denominator,
            "bottleneck_ceil": self.bottleneck_ceil,
            "separators": None if self.separators is None else list(self.separators),
            "merges": self.merges,
            "instance_count": self.instance_count,
            "space_peak_words": self.space_peak_words,
            "elements_read": self.elements_read,
            "epsilon": None if self.epsilon is None else int_text(self.epsilon),
            "warning_flags": list(self.warning_flags),
        }


def _log(num: int, den: int) -> float:
    """log(num / den) for num > den > 0, as a float; near 1 from `log1p`,
    so that a ratio close to 1 does not round to log(1.0) = 0."""
    if num < 2 * den:
        return math.log1p((num - den) / den)
    return math.log(num) - math.log(den)


def growth_steps(ratio: Fraction, target) -> int:
    """Smallest non-negative c with ratio**c >= target, computed exactly: a
    float estimate from logarithms, corrected with one pair of integer
    powers stepped exactly. A count whose powers would exceed
    `GROWTH_POWER_BITS` (estimated as the count times the bit length of the
    ratio's larger part) raises `ValueError` before any power is built."""
    ratio = as_fraction(ratio)
    if ratio <= 1:
        raise ValueError(f"growth ratio must exceed 1, got {int_text(ratio)}")
    target = as_fraction(target)
    a, b = ratio.numerator, ratio.denominator
    t, u = target.numerator, target.denominator
    if t <= u:
        return 0
    step = _log(a, b)
    try:
        # where log(ratio) underflows, near 1 log(1 + x) / log(1 + y) is x / y
        estimate = (_log(t, u) / step if step >= sys.float_info.min
                    else (t - u) * b / ((a - b) * u))
    except OverflowError:
        estimate = math.inf
    if not estimate * max(a.bit_length(), b.bit_length()) <= GROWTH_POWER_BITS:
        raise ValueError(
            f"growth ratio {int_text(ratio)} needs too many steps to reach {int_text(target)}"
        )
    # ratio**c >= target as a**c * u >= t * b**c, with up, down = a**c, b**c
    c = max(math.ceil(estimate), 1)
    up, down = a**c, b**c
    while up * u < t * down:
        up, down, c = up * a, down * b, c + 1
    while c > 1:
        up, down = up // a, down // b
        if up * u < t * down:
            break
        c -= 1
    return c


def _exact_powers(ratio: Fraction, target) -> Iterator[tuple[int, int]]:
    """(num**j, den**j) for j = 0..growth_steps(ratio, target), where
    ratio = num/den: exact, one multiplication per step, and no list."""
    powers = zip(accumulate(repeat(ratio.numerator), mul, initial=1),
                 accumulate(repeat(ratio.denominator), mul, initial=1))
    return islice(powers, growth_steps(ratio, target) + 1)


def _check_declarations(declared: KnowledgeProfile, length: int, total: int, biggest: int) -> None:
    if declared.length is not None and length != declared.length:
        raise KnowledgeMismatchError(
            f"declared length {int_text(declared.length)} but read {int_text(length)} elements"
        )
    if declared.max_weight is not None and biggest != declared.max_weight:
        raise KnowledgeMismatchError(
            f"declared maximum weight {int_text(declared.max_weight)} "
            f"but observed {int_text(biggest)}"
        )
    if declared.total_weight is not None and total != declared.total_weight:
        raise KnowledgeMismatchError(
            f"declared total weight {int_text(declared.total_weight)} "
            f"but the stream sums to {int_text(total)}"
        )


class _Race:
    """The race's probes and escalators as one `_drive` walker, one chunk
    behind the stream: it holds the prefix sums and largest weight of the
    chunk `_drive` last handed it, and walks that chunk when the next one
    comes, or in `close` once the stream has ended.

    The grid is a description, not a list: for ratio = up/down, the floor
    at level i < doublings and step j <= steps is
    (num * up**j << i) // (den * down**j), rising with i and with j, and
    the probes race over the distinct floors, ascending. Success is
    monotone in the floor, and the sandwich of the prefix read
    (`feasibility.sandwich`) pins the frontier: a floor below its low end
    has died, and one at or above its high end lives. A floor at or above
    the running total holds every element in its first block: it has no
    object until a chunk passes it, and then its probe starts from the
    total carried into the walk.

    Per chunk, a level jumps past its floors below the low end unbuilt (by
    the exact count of `growth_steps`) and builds upward from there: up to
    the running total on a chunk that is not the last, since every touched
    survivor must be walked, and on the last only up to its first floor at
    or above the high end. New floors are never below the previous total,
    so they extend the kept list. A binary search between the first floors
    at or above the low and the high end walks middle probes to find the
    lowest survivor, and the floors below it are dropped. A chunk that is
    not the last then walks the survivors the search did not walk and
    every escalator. The answer reads only the lowest surviving floor or,
    when every floor has died, the smallest escalator, and once the stream
    has ended nothing can kill that floor or make an escalator matter while
    it lives. So the last chunk walks only the search and the lowest
    survivor, and the escalators only if no floor survived it.

    Given the ratio `escalation`, the escalators start from the integer
    bases `max_weight * escalation**j` for j = 0..growth_steps(escalation,
    2). They are built the first time a chunk walks them: chunk 1 when it
    is not the last, or when no floor survives it, and otherwise never. So
    they still start at element 1, and a stream of one chunk whose floor
    survives builds none.
    """

    def __init__(self, num: int, den: int, ratio: Fraction, doublings: int, steps: int,
                 num_blocks: int, store_separators: bool, max_weight: int | None = None,
                 escalation: Fraction | None = None) -> None:
        self.num = num
        self.den = den
        self.ratio = ratio
        self.steps = steps
        self.shift = doublings - 1
        # the floors of the top level's first and last steps; level i's
        # floors run from the first >> (shift - i) to the last >> (shift - i)
        self.first_top = (num << self.shift) // den
        self.last_top = (num * ratio.numerator**steps << self.shift) // (
            den * ratio.denominator**steps)
        # per level, the next step not built yet and its floor, None past the last step
        self.levels: list[tuple[int, int | None]] = [
            (0, self.first_top >> (self.shift - level)) for level in range(doublings)]
        self.num_blocks = num_blocks
        self.store = store_separators
        self.max_weight = max_weight
        self.escalation = escalation
        # None until a chunk first walks them
        self.escalators: list[ProbeExtInstance] | None = None
        # the live floors the total has passed, ascending, and their probes;
        # after the last chunk, only the lowest surviving floor, and its
        # probe, None when the total never passed it
        self.floors: list[int] = []
        self.probes: list[ProbeInstance | None] = []
        self.total = 0
        self.biggest = 0
        self.next_index = 1
        # the prefix sums and largest weight of the chunk not walked yet
        self.held: tuple[Sequence[int], int] | None = None

    @property
    def alive(self) -> bool:
        # a floor at or above the total has not failed
        return bool(self.floors) or self.last_top >= self.total

    def walk(self, prefix: Sequence[int], top: int) -> bool:
        """Walk the held chunk, which is not the last, and hold this one;
        the race never fails, so return True."""
        if self.held is not None:
            self._advance(*self.held, final=False)
        self.held = prefix, top
        return True

    def close(self) -> None:
        """Walk the held chunk once the stream has ended; an empty stream's
        race walks no element, and its lowest floor wins."""
        self._advance(*(self.held or ([0], 0)), final=True)

    def _floor(self, level: int, step: int) -> int | None:
        """The floor at `level` and `step`; None past the last step."""
        if step > self.steps:
            return None
        up, down = self.ratio.numerator, self.ratio.denominator
        return (self.num * up**step << level) // (self.den * down**step)

    def _first_step(self, level: int, floor: int) -> int:
        """The first step whose floor at `level` is at least `floor`, by the
        exact count of `growth_steps`; steps + 1 if the level ends below it."""
        if floor <= self.first_top >> (self.shift - level):
            return 0
        if floor > self.last_top >> (self.shift - level):
            return self.steps + 1
        return growth_steps(self.ratio, Fraction(floor * self.den, self.num << level))

    def _build(self, low: int, limit: int, final: bool) -> list[int]:
        """The distinct floors from `low` up to below `limit` not built yet,
        ascending, and on the last chunk each level's first at or above it."""
        fresh = set()
        for level, (step, floor) in enumerate(self.levels):
            if floor is not None and floor < low:
                step = self._first_step(level, low)
                floor = self._floor(level, step)
            while floor is not None and floor < limit:
                fresh.add(floor)
                step += 1
                floor = self._floor(level, step)
            if final and floor is not None:
                fresh.add(floor)
            self.levels[level] = step, floor
        return sorted(fresh)

    def winning_bound(self) -> Fraction:
        """The smallest exact bound among the grid points at the lowest
        surviving floor: at each level whose floors span it, the first step
        that reaches it, if its floor equals it, since a level's floors and
        bounds both rise."""
        least = self.floors[0]
        up, down = self.ratio.numerator, self.ratio.denominator
        return min(
            Fraction((self.num << level) * up**step, self.den * down**step)
            for level in range(self.shift + 1)
            if (self.first_top >> (self.shift - level) <= least
                    <= self.last_top >> (self.shift - level))
            for step in (self._first_step(level, least),)
            if self._floor(level, step) == least
        )

    def _probe(self, floor: int) -> ProbeInstance:
        """The probe of a floor the total first passes in this chunk."""
        probe = ProbeInstance.__new__(ProbeInstance)
        # the race checked the block count once; the floors are non-negative ints
        _Walker.__init__(probe, floor, self.num_blocks, self.store)
        probe.block_weight = self.total
        probe.next_index = self.next_index
        return probe

    def _walked_escalators(self) -> list[ProbeExtInstance]:
        """The escalators, built on the first call, before their first walk."""
        if self.escalators is None:
            m = self.max_weight
            # p, eps and m were checked where they entered: no escalator checks them again
            self.escalators = [
                ProbeExtInstance.__new__(ProbeExtInstance)._start(m, m * up, down,
                                                                  self.num_blocks, self.store)
                for up, down in (_exact_powers(self.escalation, 2) if self.escalation else ())
            ]
        return self.escalators

    def _advance(self, prefix: Sequence[int], top: int, final: bool) -> None:
        if self.alive:
            total = self.total + prefix[-1]
            # the running maximum, not the chunk's: a smaller one would put
            # the high end below the optimum
            self.biggest = max(self.biggest, top)
            low, high = sandwich(total, self.biggest, self.num_blocks)
            # the floors below the low end died in this chunk: dropped unwalked
            cut = bisect_left(self.floors, low)
            fresh = self._build(low, high if final else total, final)
            floors = self.floors[cut:] + fresh
            probes = self.probes[cut:] + [None] * len(fresh)
            walked = set()
            # the floor at `hi`, the first at or above the high end, lives
            lo, hi = 0, bisect_left(floors, high)
            while lo < hi:
                mid = (lo + hi) // 2
                probe = probes[mid] = probes[mid] or self._probe(floors[mid])
                if probe.walk(prefix, top):
                    walked.add(mid)
                    hi = mid
                else:
                    lo = mid + 1
            # the survivors the answer reads: on the last chunk the lowest only
            end = min(lo + 1, len(floors)) if final else len(floors)
            for k in range(lo, end):
                if k not in walked and floors[k] < total:
                    # at or above a survivor, so it survives too
                    probes[k] = probes[k] or self._probe(floors[k])
                    probes[k].walk(prefix, top)
            self.floors = floors[lo:end]
            self.probes = probes[lo:end]
            self.total = total
            self.next_index += len(prefix) - 1
            if final and self.alive:
                return
        for escalator in self._walked_escalators():
            escalator.walk(prefix, top)


def _race(stream: Iterable[int], num_blocks: int, epsilon: Fraction, mode: str, tag: str,
          declared: KnowledgeProfile, base: Fraction, target,
          doublings: int = 1, escalation: Fraction | None = None,
          warnings: tuple[str, ...] = ()) -> SolveResult:
    """Race one probe per grid bound and, given the ratio `escalation`, one
    escalator per power of it over the stream, in one pass.

    The grid bounds are base * 2**i * (1+eps)**j for i < doublings and
    j = 0..c, the smallest c with (1+eps)**c >= target. The
    escalator bases are m * escalation**j for j = 0..c, the smallest c with
    escalation**c >= 2, and m the declared maximum, in integers. A
    probe needs only its bound's floor, and equal floors behave alike, so
    the probes race over the distinct floors. The probes and the
    escalators are one `_Race`, which builds only the floors that the
    sandwich of the prefix read leaves open, walks them one chunk at a
    time, the last chunk only as far as the answer reads, and builds the
    escalators only if it walks them. The exact bound is built only for
    the winner: the smallest exact bound among the grid points at the
    lowest surviving floor. If every probe failed, the escalator with the
    smallest threshold is the fallback. Space is one word for the element
    counter and one per declared value, plus the words of every grid point
    and escalator, whether or not the race built or walked it.
    """
    store = mode == PART_MODE
    ratio = 1 + epsilon
    steps = growth_steps(ratio, target)
    race = _Race(base.numerator, base.denominator, ratio, doublings, steps,
                 num_blocks, store, declared.max_weight, escalation)
    length, total, biggest = _drive(stream, [race], declared_max=declared.max_weight)
    _check_declarations(declared, length, total, biggest)
    race.close()

    if race.alive:
        bottleneck = race.winning_bound()
        probe = race.probes[0]
        if probe is not None:
            separators = probe.finish(length).separators
        else:  # the total never passed the winner: it opened no block
            separators = pad_separators([], num_blocks, length) if store else None
        merges = None
    elif race.escalators:
        ext = min(race.escalators, key=lambda inst: inst.bottleneck).finish(length)
        bottleneck, separators, merges = ext.bottleneck, ext.separators, ext.merges
    else:
        raise RuntimeError("no candidate bound was feasible despite verified declarations")
    probes = doublings * (steps + 1)
    escalators = growth_steps(escalation, 2) + 1 if escalation else 0
    words = 1 + sum(value is not None for value in vars(declared).values())
    words += probes * ProbeInstance.words_for(num_blocks, store)
    words += escalators * ProbeExtInstance.words_for(num_blocks, store)
    return SolveResult(
        mode=mode,
        algorithm=tag,
        bottleneck=bottleneck,
        separators=separators,
        merges=merges,
        instance_count=probes + escalators,
        space_peak_words=words,
        elements_read=length,
        epsilon=epsilon,
        warning_flags=warnings,
        probe_instances=probes,
        probe_ext_instances=escalators,
        buffer_words=RACE_BUFFER_WORDS,
    )


def solve_known_total(
    stream: Iterable[int], num_blocks: int, epsilon, total_weight: int, *, mode: str = PART_MODE
) -> SolveResult:
    """Candidates (total/p) * (1+eps)^i for i = 0..steps(p); smallest success wins."""
    epsilon = checked_args(num_blocks, mode, epsilon, needs_epsilon=True)
    declared = KnowledgeProfile(total_weight=total_weight)
    return _race(stream, num_blocks, epsilon, mode, KNOWN_TOTAL_TAG, declared,
                 Fraction(total_weight, num_blocks), num_blocks)


def solve_known_max_length(
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    max_weight: int,
    length: int,
    *,
    mode: str = PART_MODE,
) -> SolveResult:
    """Candidates max * (1+eps)^i for i = 0..steps(length); smallest success wins."""
    epsilon = checked_args(num_blocks, mode, epsilon, needs_epsilon=True)
    declared = KnowledgeProfile(max_weight=max_weight, length=length)
    return _race(stream, num_blocks, epsilon, mode, KNOWN_MAX_LENGTH_TAG, declared,
                 Fraction(max_weight), max(length, 1))


def solve_known_max(
    stream: Iterable[int], num_blocks: int, epsilon, max_weight: int, *, mode: str = PART_MODE
) -> SolveResult:
    """Race a doubling-and-ratio probe grid against escalating instances.

    Probe bounds are 2^i * (1+eps)^j * max_weight over a grid sized from
    delta = eps / (1 + eps/2); escalating instances start from
    max_weight * (1 + eps/2)^j. If any probe succeeded, the smallest successful
    probe bound wins (the grid is dense enough that its value is within
    (1+eps) of optimal whenever it is non-trivial); escalator results are
    the fallback for the large-optimum regime where every probe fails.
    """
    epsilon = checked_args(num_blocks, mode, epsilon, needs_epsilon=True)
    declared = KnowledgeProfile(max_weight=max_weight)
    warnings: tuple[str, ...] = ()
    if epsilon >= EPSILON_GUARANTEE_LIMIT:
        warnings = (WARN_EPSILON_RANGE,)
    delta = epsilon / (1 + epsilon / 2)
    doubling_levels = growth_steps(Fraction(2), 1 / delta**2) + 1
    return _race(stream, num_blocks, epsilon, mode, KNOWN_MAX_TAG, declared,
                 Fraction(max_weight), 2, doubling_levels, 1 + epsilon / 2, warnings)


class UnknownPartSolver:
    """Self-adjusting 2-approximation that maintains separators.

    After each element the bound is 2 * max(running max, running total / p),
    and one rule places the element: when the smallest adjacent-pair sum
    fits the bound, the blocks plus the element are regrouped greedily;
    otherwise the element grows the last block if it fits, and opens a block
    if not. At most p blocks are ever needed and boundaries only move
    forward. All comparisons are exact via cross-multiplication. The kept
    pair sum can only be stale low (the last block only grows), which costs
    an extra full regroup and never a different grouping.

    It is one of `_drive`'s walkers: `walk` takes each chunk's prefix sums
    and largest weight, and carries the counter, total, maximum and blocks
    to the next chunk. Its one loop hands the rule the next element that
    can regroup or open a block. In the chunk's head, before the total
    reaches p times the chunk's maximum, that is every element. From there
    the bound is 2 * total / p, and two bisects find the next one: a regroup
    is due once the total reaches p * pair / 2, and an opening once the last
    block outgrows a floor set by the total; the elements between only grow
    the last block. At p = 2 the one block holds the whole total, so no
    block ever opens and the opening bisect is skipped.
    """

    def __init__(self, num_blocks: int) -> None:
        checked_args(num_blocks)
        self.num_blocks = num_blocks
        # the maintained blocks only: the starts of blocks 2, 3, ... (block 1
        # starts at 1) and every block's weight; unopened blocks are padded
        # on read
        self._starts: list[int] = []
        self._sums = [0]
        # smallest adjacent-pair sum of the blocks; None while there is one
        self._pair: int | None = None
        self.total = 0
        self.max_weight = 0
        self.elements_read = 0

    @property
    def bound(self) -> Fraction:
        return Fraction(2 * max(self.max_weight * self.num_blocks, self.total), self.num_blocks)

    @property
    def separators(self) -> list[int]:
        return list(pad_separators(self._starts, self.num_blocks, self.elements_read))

    @property
    def block_weights(self) -> list[int]:
        return self._sums + [0] * (self.num_blocks - len(self._sums))

    def feed(self, weight: int) -> None:
        """Take one weight: a one-element chunk through `_drive`."""
        _drive((weight,), [self])

    def walk(self, prefix: Sequence[int], top: int) -> bool:
        """Advance over the next chunk of the stream, given its prefix sums
        (``prefix[0] = 0``) and its largest weight; the solver never fails,
        so return True."""
        blocks = self.num_blocks
        carried = self.total
        first = self.elements_read  # the stream index of prefix[k] is first + k
        highest = max(self.max_weight, top)
        last = len(prefix) - 1
        # from the first k with carried + prefix[k] >= p * highest on, the cap
        # is 2 * (carried + prefix[k]); the head is the elements before it
        head = max(bisect_left(prefix, blocks * highest - carried) - 1, 0)
        biggest = self.max_weight
        sums = self._sums
        pair = self._pair
        at = 0
        while at < last:
            if at < head:
                at += 1
                weight = prefix[at] - prefix[at - 1]
                if weight > biggest:
                    biggest = weight
                # compare p * (acc + w) <= p * bound = 2 * max(max_weight * p, total)
                cap = 2 * max(biggest * blocks, carried + prefix[at])
            else:
                # past the head, event by event: the last block holds `offset`
                # plus the prefix sum it has reached; a regroup is due at the
                # first k with p * pair <= 2 * (carried + prefix[k]), an opening
                # at the first k with p * (offset + prefix[k]) > 2 * (carried +
                # prefix[k]), never at p = 2 (the one block holds the total)
                offset = sums[-1] - prefix[at]
                if blocks == 2:
                    opening = last + 1
                else:
                    opening = bisect_right(prefix, (2 * carried - blocks * offset) // (blocks - 2),
                                           at + 1)
                if pair is None:
                    regroup = last + 1
                else:
                    regroup = bisect_left(prefix, -(-blocks * pair // 2) - carried, at + 1)
                at = min(regroup, opening)
                if at > last:
                    sums[-1] = offset + prefix[last]
                    break
                sums[-1] = offset + prefix[at - 1]
                weight = prefix[at] - prefix[at - 1]
                cap = 2 * (carried + prefix[at])
            if pair is not None and blocks * pair <= cap:
                self._regroup(weight, first + at, cap)
                sums = self._sums
                pair = self._pair
                continue
            grown = sums[-1] + weight
            if blocks * grown <= cap:
                sums[-1] = grown
                continue
            if len(sums) == blocks:
                raise RuntimeError("regrouping exceeded the block budget")
            self._starts.append(first + at)
            sums.append(weight)
            if pair is None or grown < pair:
                pair = grown
        self.total = carried + prefix[-1]
        self.elements_read = first + last
        self.max_weight = highest
        self._pair = pair
        return True

    def _regroup(self, weight: int, index: int, cap: int) -> None:
        """The full greedy regroup of the blocks and the incoming element."""
        blocks = self.num_blocks
        starts = []
        sums = []
        acc = self._sums[0]
        # not the probe walk: a probe and a bisect per block over the blocks'
        # prefix sums made a regroup at p=64 about 4x slower (68 against
        # 16 us) and cut perfbench unknown-part from about 422k to 331k
        # elements/s (seeds 711-716)
        for start, w in zip(self._starts + [index], self._sums[1:] + [weight]):
            if blocks * (acc + w) <= cap:
                acc += w
            else:
                sums.append(acc)
                starts.append(start)
                acc = w
        sums.append(acc)
        if len(sums) > blocks:
            raise RuntimeError("regrouping exceeded the block budget")
        self._starts = starts
        self._sums = sums
        self._pair = min(map(add, sums, sums[1:]), default=None)

    def result(self) -> SolveResult:
        return SolveResult(
            mode=PART_MODE,
            algorithm=UNKNOWN_TAG,
            bottleneck=self.bound,
            separators=pad_separators(self._starts, self.num_blocks, self.elements_read),
            merges=None,
            instance_count=1,
            space_peak_words=UNKNOWN_PART_DRIVER_WORDS + 2 * self.num_blocks,
            elements_read=self.elements_read,
            epsilon=None,
            buffer_words=BUFFER_WORDS,
        )


def solve_unknown_part(stream: Iterable[int], num_blocks: int) -> SolveResult:
    solver = UnknownPartSolver(num_blocks)
    _drive(stream, [solver])
    return solver.result()


def solve_unknown_partb(stream: Iterable[int], num_blocks: int) -> SolveResult:
    """Value-only 2-approximation: max(running max, total / p) + running max."""
    checked_args(num_blocks, PARTB_MODE)
    length, total, biggest = _drive(stream)
    bottleneck = max(Fraction(biggest), Fraction(total, num_blocks)) + biggest
    return SolveResult(
        mode=PARTB_MODE,
        algorithm=UNKNOWN_TAG,
        bottleneck=bottleneck,
        separators=None,
        merges=None,
        instance_count=0,
        space_peak_words=UNKNOWN_VALUE_DRIVER_WORDS,
        elements_read=length,
        epsilon=None,
        buffer_words=B,
    )


def _solve_unknown(stream: Iterable[int], num_blocks: int, *, mode: str) -> SolveResult:
    checked_args(num_blocks, mode)
    solver = solve_unknown_part if mode == PART_MODE else solve_unknown_partb
    return solver(stream, num_blocks)


# tag -> (solver, the names of the arguments it takes after num_blocks:
# "epsilon", then KnowledgeProfile fields in the solver's positional order)
SOLVERS = {
    KNOWN_TOTAL_TAG: (solve_known_total, ("epsilon", "total_weight")),
    KNOWN_MAX_LENGTH_TAG: (solve_known_max_length, ("epsilon", "max_weight", "length")),
    KNOWN_MAX_TAG: (solve_known_max, ("epsilon", "max_weight")),
    UNKNOWN_TAG: (_solve_unknown, ()),
}


def solve_tagged(
    tag: str,
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    profile: KnowledgeProfile,
    *,
    mode: str = PART_MODE,
) -> SolveResult:
    """Run the solver registered under `tag`, handing it epsilon and the
    declarations it takes from `profile`; other declarations are ignored."""
    if not isinstance(tag, str) or tag not in SOLVERS:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    solver, names = SOLVERS[tag]
    given = {"epsilon": epsilon, **vars(profile)}
    missing = [name for name in names if given[name] is None]
    if missing:
        raise ValueError(f"{tag} requires {', '.join(missing)}")
    return solver(stream, num_blocks, *(given[name] for name in names), mode=mode)


def dispatch(
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    profile: KnowledgeProfile,
    *,
    mode: str = PART_MODE,
) -> SolveResult:
    """Route to the best solver the profile allows.

    A declared total wins; otherwise a declared maximum selects the
    doubling-and-ratio solver even when the length is also declared, since
    its working state does not grow with the length (it is not always the
    smaller). The max-and-length solver is only reached by calling it
    directly. With no declarations the 2-approximation runs,
    picking the separator or value-only variant from `mode`.
    """
    if profile.total_weight is not None:
        tag = KNOWN_TOTAL_TAG
    elif profile.max_weight is not None:
        tag = KNOWN_MAX_TAG
    else:
        tag = UNKNOWN_TAG
    return solve_tagged(tag, stream, num_blocks, epsilon, profile, mode=mode)
