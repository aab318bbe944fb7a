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
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

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
# element counter, running total, running max, bound and the exact smallest
# adjacent-pair sum of every block but the last (5 words; the last pair is
# read from the block weights), then p - 1 interior block starts (block 1
# starts at 1) and p block weights: 5 + (p - 1) + p = 4 + 2p
UNKNOWN_PART_DRIVER_WORDS = 4
# the race (`_Race`) holds the chunk it has not walked yet, beside the chunk
# being read: its B + 1 prefix sums and its largest weight
RACE_BUFFER_WORDS = BUFFER_WORDS + B + 2


@dataclass(frozen=True, slots=True)
class KnowledgeProfile:
    """What the caller declares about the stream before the pass."""

    max_weight: int | None = None
    length: int | None = None
    total_weight: int | None = None

    def __post_init__(self) -> None:
        for name, value in _declared(self).items():
            if value is not None:
                check_count(f"declared {name}", value)


def _declared(profile: KnowledgeProfile) -> dict:
    """The profile's fields by name, in their order, declared or None."""
    return {name: getattr(profile, name) for name in KnowledgeProfile.__match_args__}


@dataclass(slots=True)
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
    # held chunk (RACE_BUFFER_WORDS); not serialized. A model bound: the
    # process holds the prefix sums as machine words (an `array('Q')`, a
    # list of ints only when a sum could pass 2**64 - 1) and lets the
    # weights go a slice at a time as their sums are built
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


def _growth(a: int, b: int, t: int, u: int) -> tuple[int, int, int]:
    """(c, a**c, b**c) for the ratio a/b > 1 and the smallest non-negative c
    with (a/b)**c >= t/u, all ints, computed exactly: a float estimate from
    logarithms, corrected with one pair of integer powers stepped exactly.
    A count whose powers would exceed `GROWTH_POWER_BITS` (estimated as the
    count times the bit length of the ratio's larger part) raises
    `ValueError` before any power is built."""
    if t <= u:
        return 0, 1, 1
    step = _log(a, b)
    try:
        # where log(ratio) underflows, near 1 log(1 + x) / log(1 + y) is x / y
        estimate = (_log(t, u) / step if step >= sys.float_info.min
                    else (t - u) * b / ((a - b) * u))
    except OverflowError:
        estimate = math.inf
    if not estimate * max(a.bit_length(), b.bit_length()) <= GROWTH_POWER_BITS:
        raise ValueError(f"growth ratio {int_text(Fraction(a, b))} needs too many steps "
                         f"to reach {int_text(Fraction(t, u))}")
    # (a/b)**c >= t/u as a**c * u >= t * b**c, with up, down = a**c, b**c
    c = max(math.ceil(estimate), 1)
    up, down = a**c, b**c
    while up * u < t * down:
        up, down, c = up * a, down * b, c + 1
    # step down while (a/b)**(c - 1) >= t/u, that is a**c * b * u >= t * a * b**c
    bu, ta = b * u, t * a
    while c > 1 and up * bu >= down * ta:
        up, down, c = up // a, down // b, c - 1
    return c, up, down


def growth_steps(ratio: Fraction, target) -> int:
    """Smallest non-negative c with ratio**c >= target, for a ratio and a
    target that `as_fraction` reads: `_growth`'s count on their parts. A
    ratio at most 1, or a count whose powers would pass
    `GROWTH_POWER_BITS`, raises `ValueError`."""
    ratio, target = as_fraction(ratio), as_fraction(target)
    if ratio <= 1:
        raise ValueError(f"growth ratio must exceed 1, got {int_text(ratio)}")
    return _growth(ratio.numerator, ratio.denominator, target.numerator, target.denominator)[0]


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
    comes, or in `close` once the stream has ended. It holds the sums as
    `_drive` built them, machine words, unless its walks would make more
    new ints reading them than the chunk has sums: then as a list of ints,
    made once (`_holdable`). A wide race's chunks after its first are lists.

    The grid is a description, not a list, and the race takes it as `_grid`
    gives it, every rational an int pair in lowest terms: for the base
    num/den and the ratio up/down, the floor at level i < doublings and
    step j <= steps, the smallest j with ratio**j >= target, is
    (num * up**j << i) // (den * down**j), rising with i and with j, and
    the probes race over the distinct floors, ascending. Success is
    monotone in the floor, and the sandwich of the prefix read
    (`feasibility.sandwich`) pins the frontier: a floor below its low end
    has died, and one at or above its high end lives. A floor at or above
    the running total holds every element in its first block: it has no
    probe until a chunk builds it, and then its probe starts from the total
    carried into the walk.

    The race keeps one list, `probes`: the live probes of the floors built
    so far, ascending by floor. Each level keeps a cursor
    (j, num * up**j, den * down**j) at its next step not built, so a floor
    costs two multiplications and a division. Per chunk, the probes below
    the low end are dropped unwalked, and a level below it jumps past its
    floors there unbuilt, to the exact count and powers of `_growth`, and
    builds upward from there: up to the running total on a chunk that is
    not the last, since every touched survivor must be walked, and on the
    last only the lowest floor of any level at or above the high end, the
    survivor the search is sure of. New floors are never below the
    previous total, so their probes extend the list. A binary search
    between the first probes at or above the low and the high end walks
    middle probes to find the lowest survivor, and the probes below it are
    dropped. The answer reads only the lowest surviving floor or, when
    every floor has died, the smallest escalator, and once the stream has
    ended nothing can kill that floor or make an escalator matter while it
    lives. So the last chunk keeps only the lowest survivor. Every chunk
    then walks each kept probe the search did not walk, which is one whose
    next element is still in the chunk; a chunk that is not the last walks
    every escalator too, and the last walks them only if no floor survived.

    Given the ratio `escalation`, also an int pair, the escalators
    start from the integer bases `max_weight * escalation**j` for j = 0..c,
    c = growth_steps(escalation, 2), a count taken once, here. They are
    built the first time a chunk walks them: chunk 1 when it is not the
    last, or when no floor survives it, and otherwise never. So they still
    start at element 1, and a stream of one chunk whose floor survives
    builds none. Every count and power is `_growth`'s, on ints.
    """

    def __init__(self, base: tuple[int, int], ratio: tuple[int, int], target: tuple[int, int],
                 doublings: int, num_blocks: int, store_separators: bool,
                 max_weight: int | None = None,
                 escalation: tuple[int, int] | None = None) -> None:
        self.num, self.den = num, den = base
        self.up, self.down = ratio
        self.steps, up, down = _growth(*ratio, *target)
        self.shift = doublings - 1
        # the top level's last floor; level i's last floor is last_top >> (shift - i)
        self.last_top = (num * up << self.shift) // (den * down)
        # per level, the cursor of the next step not built yet, None past the last step
        self.levels: list[tuple[int, int, int] | None] = [(0, num, den)] * doublings
        self.num_blocks = num_blocks
        self.store = store_separators
        self.max_weight = max_weight
        # the escalation's (up, down), or None for a race without escalators
        self.escalation = escalation
        self.escalator_count = _growth(*self.escalation, 2, 1)[0] + 1 if escalation else 0
        # None until a chunk first walks them
        self.escalators: list[ProbeExtInstance] | None = None
        # the live probes of the floors built, ascending by floor; after the
        # last chunk only the lowest survivor's, walked to the stream's end
        self.probes: list[ProbeInstance] = []
        self.total = 0
        self.biggest = 0
        self.next_index = 1
        # the prefix sums (words, or a list of ints for a wide race) and
        # largest weight of the chunk not walked yet
        self.held: tuple[Sequence[int], int] | None = None

    def walk(self, prefix: Sequence[int], top: int) -> bool:
        """Walk the held chunk, which is not the last, and hold this one;
        the race never fails, so return True."""
        if self.held is not None:
            self._advance(*self.held, final=False)
        self.held = self._holdable(prefix), top
        return True

    def _holdable(self, prefix: Sequence[int]) -> Sequence[int]:
        """The prefix sums as the race holds them. A walk makes a new int of
        every sum it reads from an `array('Q')`, about
        `len(prefix).bit_length()` of them, so when the instances that will
        walk the chunk, the kept probes and the escalators built so far,
        would read more sums than it has, they are made once: a list of
        ints, and `_drive` lets the array go. Otherwise `prefix` itself."""
        walkers = len(self.probes) + len(self.escalators or ())
        if isinstance(prefix, array) and walkers * len(prefix).bit_length() > len(prefix):
            return list(prefix)
        return prefix

    def close(self) -> None:
        """Walk the held chunk once the stream has ended; an empty stream's
        race walks no element, and its lowest floor wins. The race holds
        no chunk after it."""
        self._advance(*(self.held or ([0], 0)), final=True)
        self.held = None

    def _jump(self, level: int, floor: int) -> tuple[int, int, int] | None:
        """The cursor of the first step whose floor at `level` is at least
        `floor`, from the exact count and powers of `_growth` for the target
        floor * den / (num << level); None if the level ends below it."""
        if floor > self.last_top >> (self.shift - level):
            return None
        if floor * self.den <= self.num << level:  # the level's first floor, or a base of 0
            return 0, self.num, self.den
        step, up, down = _growth(self.up, self.down, floor * self.den, self.num << level)
        return step, self.num * up, self.den * down

    def _build(self, low: int, limit: int, final: bool) -> list[int]:
        """The distinct floors from `low` up to below `limit` not built yet,
        ascending, and on the last chunk the lowest at or above it."""
        up, down = self.up, self.down
        fresh = set()
        past = []  # each level's first floor at or above `limit`
        for level, cursor in enumerate(self.levels):
            while cursor is not None:
                step, n, d = cursor
                floor = (n << level) // d
                # below the low end: the level's first floor, or one a heavy
                # chunk lifted the low end past after the level built it
                if floor < low:
                    cursor = self._jump(level, low)
                    continue
                if floor >= limit:
                    past.append(floor)
                    break
                fresh.add(floor)
                cursor = (step + 1, n * up, d * down) if step < self.steps else None
            self.levels[level] = cursor
        if final and past:
            fresh.add(min(past))
        return sorted(fresh)

    def winning_bound(self) -> Fraction:
        """The race's one `Fraction`: the smallest exact bound among the
        grid points at the lowest surviving floor. At each level whose
        floors span it, that is the first step that reaches it, if its floor
        equals it, since a level's floors and bounds both rise."""
        least = self.probes[0].threshold_floor
        bounds = []
        for level in range(self.shift + 1):
            cursor = self._jump(level, least)
            if cursor is not None and (cursor[1] << level) // cursor[2] == least:
                bounds.append(Fraction(cursor[1] << level, cursor[2]))
        return min(bounds)

    def _probe(self, floor: int) -> ProbeInstance:
        """The probe of a floor built in this chunk, at or above the total
        carried into it: every element before the chunk is in its first
        block."""
        probe = ProbeInstance.__new__(ProbeInstance)
        # the race checked the block count once; the floors are non-negative ints
        _Walker.__init__(probe, floor, self.num_blocks, self.store)
        probe.block_weight = self.total
        probe.next_index = self.next_index
        return probe

    def _walked_escalators(self) -> list[ProbeExtInstance]:
        """The escalators, built on the first call, before their first walk,
        from the bases (m * up**j, down**j) for escalation = up/down."""
        if self.escalators is None:
            m = self.max_weight
            num, den = m, 1
            self.escalators = []
            # p, eps and m were checked where they entered: no escalator checks them again
            for _ in range(self.escalator_count):
                self.escalators.append(ProbeExtInstance.__new__(ProbeExtInstance)._start(
                    m, num, den, self.num_blocks, self.store))
                num, den = num * self.escalation[0], den * self.escalation[1]
        return self.escalators

    def _advance(self, prefix: Sequence[int], top: int, final: bool) -> None:
        """Walk one chunk. Once every floor has died, the race has no probe
        and no cursor (it died in a chunk that built up to the total, above
        its top floor), so it builds and walks only the escalators."""
        total = self.total + prefix[-1]
        # the running maximum, not the chunk's: a smaller one would put the
        # high end below the optimum
        self.biggest = max(self.biggest, top)
        low, high = sandwich(total, self.biggest, self.num_blocks)
        probes = self.probes
        # the probes below the low end died in this chunk: dropped unwalked
        del probes[:bisect_left(probes, low, key=attrgetter("threshold_floor"))]
        probes.extend(map(self._probe, self._build(low, high if final else total, final)))
        # the probe at `hi`, the first at or above the high end, lives
        lo, hi = 0, bisect_left(probes, high, key=attrgetter("threshold_floor"))
        while lo < hi:
            mid = (lo + hi) // 2
            if probes[mid].walk(prefix, top):
                hi = mid
            else:
                lo = mid + 1
        del probes[:lo]
        if final:  # the answer reads only the lowest survivor
            del probes[1:]
        stop = self.next_index + len(prefix) - 1
        for probe in probes:
            # at or above a survivor, so it survives too; one the search
            # walked is past the chunk
            if probe.next_index < stop:
                probe.walk(prefix, top)
        self.total = total
        self.next_index = stop
        if final and probes:
            return
        for escalator in self._walked_escalators():
            escalator.walk(prefix, top)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """The int pair of num/den in lowest terms, as a `Fraction` holds it
    (den > 0, and 0 is 0/1)."""
    common = math.gcd(num, den)
    return num // common, den // common


def _grid(tag: str, num_blocks: int, epsilon: Fraction, declared: KnowledgeProfile) -> tuple:
    """The race of a grid tag, as its solver's docstring gives it: the base,
    the ratio 1 + eps, the target, the doublings, the escalation (None: no
    escalators) and the warnings, every value an int pair (numerator,
    denominator) in lowest terms but the doublings and the warnings. For
    eps = a/b the known-m grid is, in integers: delta = eps / (1 + eps/2) =
    2a / (2b + a), so delta**-2 = (2b + a)**2 / (4a**2), the escalation
    1 + eps/2 = (2b + a) / 2b, and the warning fires when eps >= 1/64."""
    a, b = epsilon.numerator, epsilon.denominator
    ratio = (a + b, b)  # in lowest terms, as a/b is
    if tag == KNOWN_TOTAL_TAG:
        return _reduced(declared.total_weight, num_blocks), ratio, (num_blocks, 1), 1, None, ()
    if tag == KNOWN_MAX_LENGTH_TAG:
        return (declared.max_weight, 1), ratio, (max(declared.length, 1), 1), 1, None, ()
    limit = EPSILON_GUARANTEE_LIMIT
    warnings = (WARN_EPSILON_RANGE,) if a * limit.denominator >= b * limit.numerator else ()
    doublings = _growth(2, 1, *_reduced((2 * b + a) ** 2, 4 * a * a))[0] + 1
    return ((declared.max_weight, 1), ratio, (2, 1), doublings, _reduced(2 * b + a, 2 * b),
            warnings)


def _race(stream: Iterable[int], num_blocks: int, epsilon: Fraction, mode: str, tag: str,
          declared: KnowledgeProfile) -> SolveResult:
    """Race one probe per grid bound and, given the ratio `escalation`, one
    escalator per power of it over the stream, in one pass; `_grid` gives
    the grid and the escalation.

    The grid bounds are base * 2**i * (1+eps)**j for i < doublings and
    j = 0..c, the smallest c with (1+eps)**c >= target. The escalator bases
    are m * escalation**j for j = 0..c, the smallest c with
    escalation**c >= 2, and m the declared maximum, in integers. A probe
    needs only its bound's floor, and equal floors behave alike, so the
    probes race over the distinct floors. The probes and the escalators
    are one `_Race`, which keeps one list of live probes, steps one
    exact-power cursor per level to build only the floors that the
    sandwich of the prefix read leaves open, walks them one chunk at a
    time, the last chunk only as far as the answer reads, and builds the
    escalators only if it walks them. The exact bound is built only for
    the winner, the lowest surviving floor's probe: the smallest exact
    bound among the grid points at that floor. If every probe failed, the
    escalator with the smallest threshold is the fallback. Space is one word for the element
    counter and one per declared value, plus the words of every grid point
    and escalator, whether or not the race built or walked it.
    """
    base, ratio, target, doublings, escalation, warnings = _grid(tag, num_blocks, epsilon,
                                                                 declared)
    store = mode == PART_MODE
    race = _Race(base, ratio, target, doublings, num_blocks, store, declared.max_weight,
                 escalation)
    length, total, biggest = _drive(stream, [race], declared_max=declared.max_weight)
    _check_declarations(declared, length, total, biggest)
    race.close()

    if race.probes:
        bottleneck = race.winning_bound()
        separators = race.probes[0].finish(length).separators
        merges = None
    elif race.escalators:
        ext = min(race.escalators, key=lambda inst: inst.bottleneck).finish(length)
        bottleneck, separators, merges = ext.bottleneck, ext.separators, ext.merges
    else:
        raise RuntimeError("no candidate bound was feasible despite verified declarations")
    probes = doublings * (race.steps + 1)
    escalators = race.escalator_count
    words = 1 + sum(value is not None for value in _declared(declared).values())
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
    return solve_tagged(KNOWN_TOTAL_TAG, stream, num_blocks, epsilon,
                        KnowledgeProfile(total_weight=total_weight), mode=mode)


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
    return solve_tagged(KNOWN_MAX_LENGTH_TAG, stream, num_blocks, epsilon,
                        KnowledgeProfile(max_weight=max_weight, length=length), mode=mode)


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
    return solve_tagged(KNOWN_MAX_TAG, stream, num_blocks, epsilon,
                        KnowledgeProfile(max_weight=max_weight), mode=mode)


class UnknownPartSolver:
    """Self-adjusting 2-approximation that maintains separators.

    After each element the bound is 2 * max(running max, running total / p),
    and one rule places the element: when the smallest adjacent-pair sum
    fits the bound, the blocks plus the element are regrouped greedily;
    otherwise the element grows the last block if it fits, and opens a block
    if not. At most p blocks are ever needed and boundaries only move
    forward. All comparisons are exact via cross-multiplication. The solver
    keeps the exact smallest pair sum of every block but the last, and reads
    the last pair, which grows with the last block, when the rule needs it:
    the smallest pair sum the rule tests is exact, so every regroup merges
    at least one pair. A regroup changes the blocks in place, in one scan
    that merges each run of blocks the greedy would join and also finds the
    new smallest pair sum.

    It is one of `_drive`'s walkers: `walk` takes each chunk's prefix sums
    and largest weight, and carries the counter, total, maximum and blocks
    to the next chunk. Its one loop hands the rule the next element that
    can regroup or open a block. In the chunk's head, before the total
    reaches p times the chunk's maximum, that is every element. From there
    the bound is 2 * total / p, and one bisect finds the next one, the
    first whose prefix sum passes the smaller of two thresholds: a regroup
    is due once the total reaches p * pair / 2, and an opening once the last
    block outgrows a floor set by the total; the elements between only grow
    the last block. The pair is the smaller of the exact smallest pair sum
    of the other blocks and the last pair as it is at the search, which is
    left out once p times it passes 2 * (total + the chunk's maximum): each
    element then adds p times its weight to the one and at most twice that
    maximum to the cap, so it cannot fit before the next event. At p = 2
    the one block holds the whole total, so no block ever opens and the
    opening threshold is skipped.
    """

    def __init__(self, num_blocks: int) -> None:
        checked_args(num_blocks)
        self.num_blocks = num_blocks
        # the maintained blocks only: the starts of blocks 2, 3, ... (block 1
        # starts at 1) and every block's weight; unopened blocks are padded
        # on read
        self._starts: list[int] = []
        self._sums = [0]
        # smallest adjacent-pair sum of every block but the last; None while
        # there are fewer than three blocks
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
        rest = self._pair
        # in the head, a lower bound of the smallest pair sum, exact at each
        # event: the last pair only grows between events (past the head each
        # search sets it afresh)
        pair = sums[-2] + sums[-1] if len(sums) > 1 else None
        if rest is not None and rest < pair:
            pair = rest
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
                # plus the prefix sum it has reached, and one search finds the
                # first k whose prefix[k] passes the smaller of two thresholds: a
                # regroup is due once p * pair <= 2 * (carried + prefix[k]), an
                # opening once p * (offset + prefix[k]) > 2 * (carried +
                # prefix[k]), never at p = 2 (the one block holds the total)
                offset = sums[-1] - prefix[at]
                pair = rest
                if len(sums) > 1:
                    # the last pair as it is now. Until the next event each
                    # element adds p times its weight to p * tail and at most
                    # 2 * top to the cap, so past 2 * (carried + prefix[at] +
                    # top) it cannot fit before then, and only `rest` can
                    tail = sums[-2] + sums[-1]
                    if (pair is None or tail < pair) and (
                            blocks * tail <= 2 * (carried + prefix[at] + top)):
                        pair = tail
                threshold = None if pair is None else -(-blocks * pair // 2) - carried - 1
                if blocks > 2:
                    opening = (2 * carried - blocks * offset) // (blocks - 2)
                    if threshold is None or opening < threshold:
                        threshold = opening
                at = last + 1 if threshold is None else bisect_right(prefix, threshold, at + 1)
                if at > last:
                    sums[-1] = offset + prefix[last]
                    break
                sums[-1] = offset + prefix[at - 1]
                weight = prefix[at] - prefix[at - 1]
                cap = 2 * (carried + prefix[at])
            if pair is not None and blocks * pair <= cap:
                # the last pair may have grown past the bound: regroup only
                # when some pair can merge, else only grow or open
                pair = sums[-2] + sums[-1]
                if rest is not None and rest < pair:
                    pair = rest
                if blocks * pair <= cap:
                    self._regroup(weight, first + at, cap)
                    rest = self._pair
                    pair = sums[-2] + sums[-1] if len(sums) > 1 else None
                    if rest is not None and rest < pair:
                        pair = rest
                    continue
            grown = sums[-1] + weight
            if blocks * grown <= cap:
                sums[-1] = grown
                continue
            if len(sums) == blocks:
                raise RuntimeError("regrouping exceeded the block budget")
            self._starts.append(first + at)
            if len(sums) > 1:
                # the closed last pair joins the others
                closed = sums[-2] + sums[-1]
                if rest is None or closed < rest:
                    rest = closed
            sums.append(weight)
            pair = grown if rest is None or grown < rest else rest
        self.total = carried + prefix[-1]
        self.elements_read = first + last
        self.max_weight = highest
        self._pair = rest
        return True

    def _regroup(self, weight: int, index: int, cap: int) -> None:
        """The greedy regroup of the blocks and the incoming element, in place.

        With `limit` = cap // p, p * (acc + w) <= cap exactly when acc + w <=
        limit. The greedy opens an output block only at an input block's
        start, so its output is the input with each maximal run merged: left
        to right, a run starts at a block whose pair with the next fits the
        limit, and grows while the next block fits too. One scan from block 0
        splices each run where it finds it and keeps the smallest pair sum of
        every output block but the last; no block list is built.
        """
        sums = self._sums
        starts = self._starts
        sums.append(weight)
        starts.append(index)
        limit = cap // self.num_blocks
        # `held` is the sum of the pair that ends at block i - 1: it counts
        # towards `low` once that block starts no run and is not the last.
        # cap starts both, as no pair sum exceeds it (the blocks hold the
        # total, at most cap / 2)
        low = held = cap
        i = 0
        left = sums[0]
        last = len(sums) - 1
        while i < last:
            i += 1
            right = sums[i]
            both = left + right
            if both > limit:
                if held < low:
                    low = held
                held = both
                left = right
                continue
            # a run from block i - 1: merge on while the next block fits
            end = i + 1
            while end <= last and both + sums[end] <= limit:
                both += sums[end]
                end += 1
            i -= 1
            sums[i:end] = (both,)
            del starts[i:end - 1]
            last = len(sums) - 1
            held = sums[i - 1] + both if i else cap
            left = both
        # cannot fire: the walk regroups only when some pair merges
        # (`test_no_regroup_is_wasted`), so at most p blocks are left
        if len(sums) > self.num_blocks:
            raise RuntimeError("regrouping exceeded the block budget")
        self._pair = low if last > 1 else None

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


# tag -> the names it requires: "epsilon", then KnowledgeProfile fields
SOLVERS = {
    KNOWN_TOTAL_TAG: ("epsilon", "total_weight"),
    KNOWN_MAX_LENGTH_TAG: ("epsilon", "max_weight", "length"),
    KNOWN_MAX_TAG: ("epsilon", "max_weight"),
    UNKNOWN_TAG: (),
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
    """Run the solver registered under `tag`, the one place where a tag becomes a
    solve: check the tag, the epsilon and declarations it requires, then the
    shared arguments (epsilon only if the tag takes it), and route; ignore others."""
    if not isinstance(tag, str) or tag not in SOLVERS:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    # the comprehensions read only `names`: each local one reads is a cell held through the pass
    names = SOLVERS[tag]
    missing = [name for name, value in {"epsilon": epsilon, **_declared(profile)}.items()
               if name in names and value is None]
    if missing:
        raise ValueError(f"{tag} requires {', '.join(missing)}")
    epsilon = checked_args(num_blocks, mode, epsilon if names else None)
    if not names:
        solver = solve_unknown_part if mode == PART_MODE else solve_unknown_partb
        return solver(stream, num_blocks)
    if any(value is not None and name not in names for name, value in _declared(profile).items()):
        profile = KnowledgeProfile(*[value if name in names else None
                                     for name, value in _declared(profile).items()])
    return _race(stream, num_blocks, epsilon, mode, tag, profile)


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
