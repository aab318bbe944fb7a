"""Shared test utilities: independent optima (exhaustive search and the
quadratic DP), counting streams, corpora, the per-element feasibility
machines the chunked walk is checked against, the race that builds and
walks every grid probe, which the frontier-searched probe grid is checked
against, the full-regroup 2-approximation the unknown-knowledge fast path
is checked against, the per-element unknown-knowledge walk its
event-driven walk is checked against, the maximality check of a probe's
separators, a counter of the weights the weight rule scans, a counter of
the grid's `_growth` calls and built floors, seeded streams of four
weight mixes, and the hypothesis settings every Tier-1 property test
starts from."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, pairwise
from operator import add
from typing import Iterable, Iterator, Sequence

from hypothesis import settings

from streampart import core, feasibility, oracle, schedulers
from streampart import (ProbeExtInstance, ProbeFailure, ProbeInstance, ProbeOutcome, as_fraction,
                        floor_fraction)
from streampart.feasibility import BUFFER_WORDS, PART_MODE, _drive
from streampart.schedulers import (KnowledgeProfile, SolveResult, UnknownPartSolver,
                                   _check_declarations)

# reproducible property tests: no deadline, no example database, a fixed
# seed; each test states only its example count
TIER1 = settings(deadline=None, database=None, derandomize=True)


def brute_force_optimum(weights: Sequence[int], num_blocks: int) -> int:
    """Minimum bottleneck by exhaustive separator enumeration.

    Places the p-1 interior separators at every non-decreasing tuple of
    positions in [1, n+1], so empty blocks are covered. Intended for small
    instances only; it is the ground truth the faster oracles are tested
    against.
    """
    n = len(weights)
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    best = prefix[-1]
    for mids in combinations_with_replacement(range(1, n + 2), num_blocks - 1):
        cuts = (1, *mids, n + 1)
        worst = max(
            prefix[cuts[k + 1] - 1] - prefix[cuts[k] - 1]
            for k in range(num_blocks)
        )
        if worst < best:
            best = worst
    return best


def quadratic_dp_optimum(weights: Sequence[int], num_blocks: int) -> int:
    """Minimum bottleneck by the quadratic prefix recurrence over the block
    count, trying every split of each prefix (stopping where the tail no
    longer exceeds the head). It is the reference the DP oracle's monotone
    split points are checked against; O(n^2 * p), for small instances."""
    n = len(weights)
    prefix = list(accumulate(weights, initial=0))
    # best[i] = least bottleneck for the first i elements with the current block budget
    best = prefix[:]
    effective = min(num_blocks, n) if n else 1
    for _ in range(2, effective + 1):
        nxt = [0] * (n + 1)
        for i in range(1, n + 1):
            target = prefix[i]
            value = target  # j = 0: everything in the last block
            for j in range(1, i + 1):
                candidate = best[j]
                tail = target - prefix[j]
                if tail > candidate:
                    candidate = tail
                if candidate < value:
                    value = candidate
                if tail <= best[j]:
                    break  # best[j] grows and the tail shrinks with j
            nxt[i] = value
        best = nxt
    return best[n]


class CountingStream:
    """Iterator wrapper that records how many elements were pulled."""

    def __init__(self, weights: Iterable[int]) -> None:
        self._it = iter(weights)
        self.count = 0

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        value = next(self._it)
        self.count += 1
        return value


def counted_checked_max(monkeypatch) -> list[int]:
    """Count the calls of `core.checked_max`, wherever it is called from:
    the list of the lengths of the lists it was given."""
    calls: list[int] = []
    checked_max = core.checked_max

    def counted(weights, declared_max=None):
        calls.append(len(weights))
        return checked_max(weights, declared_max)

    for module in (core, feasibility, oracle):
        monkeypatch.setattr(module, "checked_max", counted)
    return calls


def counted_growth_and_builds(monkeypatch) -> tuple[list, list[list[int]]]:
    """The int arguments (a, b, t, u) of every `_growth` call, ratio a/b
    and target t/u, and the floors of every `_Race._build`, from now on."""
    counts, fresh = [], []
    growth = schedulers._growth
    build = schedulers._Race._build

    def counted_growth(*args):
        counts.append(args)
        return growth(*args)

    def counted_build(self, *args):
        fresh.append(build(self, *args))
        return fresh[-1]

    monkeypatch.setattr(schedulers, "_growth", counted_growth)
    monkeypatch.setattr(schedulers._Race, "_build", counted_build)
    return counts, fresh


def random_stream(rng: random.Random, max_len: int = 100, max_weight: int = 10) -> list[int]:
    """Length 1..max_len, weights uniform in [0, cap] for a random cap."""
    n = rng.randint(1, max_len)
    cap = rng.randint(0, max_weight)
    return [rng.randint(0, cap) for _ in range(n)]


def seeded_corpus(
    count: int, base_seed: int, max_len: int = 100, max_weight: int = 10
) -> list[list[int]]:
    return [
        random_stream(random.Random(base_seed + k), max_len, max_weight)
        for k in range(count)
    ]


P_CHOICES = (2, 3, 5, 8)


MIXES = ("zeros", "log-spread", "uniform", "spikes")


def mixed_stream(seed: int, length: int, mix: str) -> list[int]:
    """`length` seeded weights of one mix: mostly zeros, spread over four
    decades, uniform in 0..1000, or small weights with rare spikes, each a
    new maximum between 1/64 of the total so far and all of it, which lifts
    p * max back above the total mid-stream."""
    rng = random.Random(seed)
    if mix == "uniform":
        return rng.choices(range(1001), k=length)
    weights = []
    total = 0
    for _ in range(length):
        if mix == "zeros":
            weight = rng.randint(1, 9) if rng.random() < 0.2 else 0
        elif mix == "log-spread":
            weight = rng.randint(0, 10 ** rng.randint(0, 4))
        elif rng.random() < 0.005:
            weight = total // rng.choice((1, 4, 16, 64)) + 101
        else:
            weight = rng.randint(0, 100)
        weights.append(weight)
        total += weight
    return weights


def paired_blocks(index: int) -> int:
    """Deterministic p for the index-th corpus stream, cycling 2, 3, 5, 8."""
    return P_CHOICES[index % len(P_CHOICES)]


class ReferenceProbe:
    """The per-element greedy probe, one weight at a time: the reference the
    chunked walk of `ProbeInstance` is checked against. `events` lists the
    index of every element that opened a block or made the probe fail."""

    def __init__(self, threshold: int, num_blocks: int, store_separators: bool) -> None:
        self.threshold_floor = threshold
        self.num_blocks = num_blocks
        self.block_ordinal = 1
        self.block_weight = 0
        self.next_index = 1
        self.separators = [] if store_separators else None
        self.failure = None
        self.merges = 0
        self.events: list[int] = []

    def feed(self, weight: int) -> None:
        threshold = self.threshold_floor
        if weight > threshold:
            self.failure = ProbeFailure.ELEMENT_EXCEEDS_THRESHOLD
            self.events.append(self.next_index)
        elif self.block_weight + weight <= threshold:
            self.block_weight += weight
        elif self.block_ordinal < self.num_blocks:
            if self.separators is not None:
                self.separators.append(self.next_index)
            self.block_ordinal += 1
            self.block_weight = weight
            self.events.append(self.next_index)
        else:
            self.failure = ProbeFailure.PARTITIONS_EXHAUSTED
            self.events.append(self.next_index)
        self.next_index += 1


class ReferenceEscalator(ReferenceProbe):
    """The per-element merging instance: threshold floor(2^merges * base),
    and, when no block is left, adjacent blocks merged pairwise with the
    incoming element's index as the tentative last boundary."""

    def __init__(self, base: Fraction, num_blocks: int, store_separators: bool) -> None:
        super().__init__(base.numerator // base.denominator, num_blocks, store_separators)
        self.base = base

    def feed(self, weight: int) -> None:
        if self.block_weight + weight <= self.threshold_floor:
            self.block_weight += weight
        elif self.block_ordinal < self.num_blocks:
            if self.separators is not None:
                self.separators.append(self.next_index)
            self.block_ordinal += 1
            self.block_weight = weight
            self.events.append(self.next_index)
        else:
            blocks = self.num_blocks
            self.merges += 1
            self.threshold_floor = (self.base.numerator << self.merges) // self.base.denominator
            if self.separators is not None:
                boundaries = self.separators + [self.next_index]
                self.separators = [boundaries[2 * a + 1] for a in range(blocks // 2)]
            self.block_ordinal = blocks // 2 + 1
            if blocks % 2 == 0:
                self.block_weight = weight
            else:
                self.block_weight += weight
            self.events.append(self.next_index)
        self.next_index += 1


def fraction_grid(tag: str, num_blocks: int, epsilon: Fraction,
                  declared: KnowledgeProfile) -> tuple:
    """`schedulers._grid` in `Fraction`s, its formulas as eps and delta are
    written: the base, the target, the doublings, the escalation (None: no
    escalators) and the warnings. It is the reference the integer grid is
    checked against."""
    if tag == schedulers.KNOWN_TOTAL_TAG:
        return Fraction(declared.total_weight, num_blocks), num_blocks, 1, None, ()
    if tag == schedulers.KNOWN_MAX_LENGTH_TAG:
        return Fraction(declared.max_weight), max(declared.length, 1), 1, None, ()
    warnings = ((schedulers.WARN_EPSILON_RANGE,)
                if epsilon >= schedulers.EPSILON_GUARANTEE_LIMIT else ())
    delta = epsilon / (1 + epsilon / 2)
    doublings = schedulers.growth_steps(Fraction(2), 1 / delta**2) + 1
    return Fraction(declared.max_weight), 2, doublings, 1 + epsilon / 2, warnings


def reference_race(stream: Iterable[int], num_blocks: int, epsilon: Fraction, mode: str,
                   tag: str, declared: KnowledgeProfile) -> SolveResult:
    """`schedulers._race` as one `ProbeInstance` per grid point, every live
    one walked over every chunk: the reference the frontier-searched probe
    grid is checked against. It takes `_race`'s arguments, so a test can put
    it in `_race`'s place, and its grid is `fraction_grid`'s. Its grid
    steps through the `Fraction` powers of
    1 + eps up to the first of at least `target`, and floors each bound on
    its own. Its escalators go through the public, checked constructor with
    the slacks escalation**j - 1, up to the first power of at least 2, so
    the race's integer start is checked against that route."""
    base, target, doublings, escalation, warnings = fraction_grid(tag, num_blocks, epsilon,
                                                                  declared)
    store = mode == PART_MODE
    powers = [Fraction(1)]
    while powers[-1] < target:
        powers.append(powers[-1] * (1 + epsilon))
    bounds = [base * 2**i * power for i in range(doublings) for power in powers]
    probes = [ProbeInstance(floor_fraction(bound), num_blocks, store_separators=store)
              for bound in bounds]
    slacks = [] if escalation is None else [Fraction(0)]
    while slacks and slacks[-1] < 1:
        slacks.append(escalation ** len(slacks) - 1)
    escalators = [
        ProbeExtInstance(declared.max_weight, num_blocks, slack, store_separators=store)
        for slack in slacks
    ]
    length, total, biggest = _drive(stream, probes + escalators,
                                    declared_max=declared.max_weight)
    _check_declarations(declared, length, total, biggest)
    alive = [k for k, inst in enumerate(probes) if inst.failure is None]
    if alive:
        least = min(probes[k].threshold_floor for k in alive)
        k = min((k for k in alive if probes[k].threshold_floor == least), key=bounds.__getitem__)
        bottleneck, separators, merges = bounds[k], probes[k].finish(length).separators, None
    elif escalators:
        ext = min(escalators, key=lambda inst: inst.bottleneck).finish(length)
        bottleneck, separators, merges = ext.bottleneck, ext.separators, ext.merges
    else:
        raise RuntimeError("no candidate bound was feasible despite verified declarations")
    words = 1 + sum(getattr(declared, name) is not None
                    for name in KnowledgeProfile.__match_args__)
    words += sum(inst.words for inst in probes) + sum(inst.words for inst in escalators)
    return SolveResult(
        mode=mode,
        algorithm=tag,
        bottleneck=bottleneck,
        separators=separators,
        merges=merges,
        instance_count=len(probes) + len(escalators),
        space_peak_words=words,
        elements_read=length,
        epsilon=epsilon,
        warning_flags=warnings,
        probe_instances=len(probes),
        probe_ext_instances=len(escalators),
        buffer_words=BUFFER_WORDS,
    )


class ReferenceUnknownPart:
    """The unknown-knowledge 2-approximation that regroups every maintained
    block on every element: the reference `UnknownPartSolver`'s fast path
    is checked against."""

    def __init__(self, num_blocks: int) -> None:
        self.num_blocks = num_blocks
        self.separators = [1] * (num_blocks + 1)
        self.block_weights = [0] * num_blocks
        self.total = 0
        self.max_weight = 0
        self.elements_read = 0

    @property
    def bound(self) -> Fraction:
        return Fraction(2 * max(self.max_weight * self.num_blocks, self.total), self.num_blocks)

    def feed(self, weight: int) -> None:
        self.elements_read += 1
        index = self.elements_read
        self.total += weight
        if weight > self.max_weight:
            self.max_weight = weight
        blocks = self.num_blocks
        # compare p * (acc + w) <= p * bound = 2 * max(max_weight * p, total)
        cap = 2 * max(self.max_weight * blocks, self.total)
        starts = [1]
        sums = []
        acc = self.block_weights[0]
        for start, w in zip(self.separators[1:blocks] + [index],
                            self.block_weights[1:] + [weight]):
            if blocks * (acc + w) <= cap:
                acc += w
            else:
                sums.append(acc)
                starts.append(start)
                acc = w
        sums.append(acc)
        if len(sums) > blocks:
            raise RuntimeError("regrouping exceeded the block budget")
        grown = index + 1
        self.separators = starts + [grown] * (blocks + 1 - len(starts))
        self.block_weights = sums + [0] * (blocks - len(sums))


class ReferenceUnknownWalk(UnknownPartSolver):
    """`UnknownPartSolver` with the per-element walk and the full-rebuild
    regroup: every element of a chunk runs the regroup, grow and open tests
    in turn, with the smallest pair sum recomputed from the blocks, a
    regroup builds new block lists, and `_pair` is recomputed after every
    element. The event-driven walk and its in-place regroup are checked
    against it, state for state, after every chunk."""

    def walk(self, prefix: Sequence[int], top: int) -> bool:
        blocks = self.num_blocks
        index = self.elements_read
        for before, running in pairwise(prefix):
            weight = running - before
            index += 1
            self.max_weight = max(self.max_weight, weight)
            # compare p * (acc + w) <= p * bound = 2 * max(max_weight * p, total)
            cap = 2 * max(self.max_weight * blocks, self.total + running)
            sums = self._sums
            pair = min(map(add, sums, sums[1:]), default=None)
            if pair is not None and blocks * pair <= cap:
                self._regroup(weight, index, cap)
            elif blocks * (sums[-1] + weight) <= cap:
                sums[-1] += weight
            elif len(sums) == blocks:
                raise RuntimeError("regrouping exceeded the block budget")
            else:
                self._starts.append(index)
                sums.append(weight)
            # every block but the last
            closed = self._sums[:-1]
            self._pair = min(map(add, closed, closed[1:]), default=None)
        self.total += prefix[-1]
        self.elements_read = index
        return True

    def _regroup(self, weight: int, index: int, cap: int) -> None:
        blocks = self.num_blocks
        starts = []
        sums = []
        acc = self._sums[0]
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
        # the pairs of sums[:-1]: map stops at the shorter list
        self._pair = min(map(add, sums, sums[1:-1]), default=None)


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
