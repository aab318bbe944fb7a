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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import KnowledgeMismatchError, SpaceMeter, as_fraction, ceil_fraction
from .feasibility import PART_MODE, PARTB_MODE, ProbeInstance, _drive, checked_args
from .probe_ext import ProbeExtInstance

KNOWN_TOTAL_TAG = "known-S"
KNOWN_MAX_LENGTH_TAG = "known-mn"
KNOWN_MAX_TAG = "known-m"
UNKNOWN_TAG = "unknown-2approx"

# the ratio guarantee of solve_known_max is only established below this
EPSILON_GUARANTEE_LIMIT = Fraction(1, 64)
WARN_EPSILON_RANGE = "epsilon-outside-established-guarantee"

# driver state: one word per declared value plus the element counter
KNOWN_TOTAL_DRIVER_WORDS = 2
KNOWN_MAX_LENGTH_DRIVER_WORDS = 3
KNOWN_MAX_DRIVER_WORDS = 2
# element counter, running total, running max
UNKNOWN_VALUE_DRIVER_WORDS = 3
# element counter, running total, running max, bound, plus a start index and
# a weight per maintained block
UNKNOWN_PART_DRIVER_WORDS = 4


@dataclass(frozen=True)
class KnowledgeProfile:
    """What the caller declares about the stream before the pass."""

    max_weight: int | None = None
    length: int | None = None
    total_weight: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_weight", "length", "total_weight"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 0):
                raise ValueError(f"declared {name} must be a non-negative int, got {value!r}")


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
    # grid detail for the doubling-and-ratio solver; not serialized
    probe_instances: int | None = None
    probe_ext_instances: int | None = None

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
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "warning_flags": list(self.warning_flags),
        }


def _exact_powers(ratio, target) -> list[Fraction]:
    """ratio**0 .. ratio**c for the smallest c with ratio**c >= target, exactly."""
    ratio = as_fraction(ratio)
    if ratio <= 1:
        raise ValueError(f"growth ratio must exceed 1, got {ratio}")
    target = as_fraction(target)
    powers = [Fraction(1)]
    while powers[-1] < target:
        powers.append(powers[-1] * ratio)
    return powers


def growth_steps(ratio: Fraction, target) -> int:
    """Smallest non-negative c with ratio**c >= target, computed exactly."""
    return len(_exact_powers(ratio, target)) - 1


def _check_declarations(declared: KnowledgeProfile, length: int, total: int, biggest: int) -> None:
    if declared.length is not None and length != declared.length:
        raise KnowledgeMismatchError(
            f"declared length {declared.length} but read {length} elements"
        )
    if declared.max_weight is not None and biggest != declared.max_weight:
        raise KnowledgeMismatchError(
            f"declared maximum weight {declared.max_weight} but observed {biggest}"
        )
    if declared.total_weight is not None and total != declared.total_weight:
        raise KnowledgeMismatchError(
            f"declared total weight {declared.total_weight} but the stream sums to {total}"
        )


def _race_grid(stream: Iterable[int], num_blocks: int, epsilon: Fraction, mode: str,
               meter: SpaceMeter | None, tag: str, driver_words: int, base: Fraction,
               target: int, declared: KnowledgeProfile) -> SolveResult:
    """Race candidates base * (1+eps)^i for i = 0..steps(target); smallest success wins."""
    meter = meter if meter is not None else SpaceMeter()
    meter.charge(driver_words)
    store = mode == PART_MODE
    instances = [
        ProbeInstance(base * power, num_blocks, store_separators=store, meter=meter)
        for power in _exact_powers(1 + epsilon, target)
    ]
    length, total, biggest = _drive(stream, instances, [], declared.max_weight)
    _check_declarations(declared, length, total, biggest)
    # bounds are created in increasing order, so the first survivor is smallest
    winner = next((inst for inst in instances if inst.failure is None), None)
    if winner is None:
        raise RuntimeError("no candidate bound was feasible despite verified declarations")
    return SolveResult(
        mode=mode,
        algorithm=tag,
        bottleneck=winner.bound,
        separators=winner.finish(length).separators,
        merges=None,
        instance_count=len(instances),
        space_peak_words=meter.peak_words,
        elements_read=length,
        epsilon=epsilon,
    )


def solve_known_total(
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    total_weight: int,
    *,
    mode: str = PART_MODE,
    meter: SpaceMeter | None = None,
) -> SolveResult:
    """Candidates (total/p) * (1+eps)^i for i = 0..steps(p); smallest success wins."""
    epsilon = checked_args(num_blocks, mode, epsilon, needs_epsilon=True)
    declared = KnowledgeProfile(total_weight=total_weight)
    return _race_grid(stream, num_blocks, epsilon, mode, meter, KNOWN_TOTAL_TAG,
                      KNOWN_TOTAL_DRIVER_WORDS, Fraction(total_weight, num_blocks),
                      num_blocks, declared)


def solve_known_max_length(
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    max_weight: int,
    length: int,
    *,
    mode: str = PART_MODE,
    meter: SpaceMeter | None = None,
) -> SolveResult:
    """Candidates max * (1+eps)^i for i = 0..steps(length); smallest success wins."""
    epsilon = checked_args(num_blocks, mode, epsilon, needs_epsilon=True)
    declared = KnowledgeProfile(max_weight=max_weight, length=length)
    return _race_grid(stream, num_blocks, epsilon, mode, meter, KNOWN_MAX_LENGTH_TAG,
                      KNOWN_MAX_LENGTH_DRIVER_WORDS, Fraction(max_weight), max(length, 1),
                      declared)


def solve_known_max(
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    max_weight: int,
    *,
    mode: str = PART_MODE,
    meter: SpaceMeter | None = None,
) -> SolveResult:
    """Race a doubling-and-ratio probe grid against escalating instances.

    Probe bounds are 2^i * (1+eps)^j * max_weight over a grid sized from
    delta = eps / (1 + eps/2); escalating instances use slacks
    (1 + eps/2)^j - 1. If any probe succeeded, the smallest successful
    probe bound wins (the grid is dense enough that its value is within
    (1+eps) of optimal whenever it is non-trivial); escalator results are
    the fallback for the large-optimum regime where every probe fails.
    """
    epsilon = checked_args(num_blocks, mode, epsilon, needs_epsilon=True)
    declared = KnowledgeProfile(max_weight=max_weight)
    meter = meter if meter is not None else SpaceMeter()
    meter.charge(KNOWN_MAX_DRIVER_WORDS)
    warnings: tuple[str, ...] = ()
    if epsilon >= EPSILON_GUARANTEE_LIMIT:
        warnings = (WARN_EPSILON_RANGE,)

    delta = epsilon / (1 + epsilon / 2)
    doubling_levels = growth_steps(Fraction(2), 1 / delta**2) + 1
    ratio_powers = _exact_powers(1 + epsilon, 2)
    store = mode == PART_MODE
    probes = [
        ProbeInstance(
            max_weight * power * (1 << i), num_blocks, store_separators=store, meter=meter
        )
        for i in range(doubling_levels)
        for power in ratio_powers
    ]
    escalators = [
        ProbeExtInstance(max_weight, num_blocks, power - 1, store_separators=store, meter=meter)
        for power in _exact_powers(1 + epsilon / 2, 2)
    ]

    length, total, biggest = _drive(stream, probes, escalators, declared_max=max_weight)
    _check_declarations(declared, length, total, biggest)

    survivors = [inst for inst in probes if inst.failure is None]
    if survivors:
        # min keeps the first of equal bounds, i.e. the first in (i, j) order
        winner = min(survivors, key=lambda inst: inst.bound)
        bottleneck, separators, merges = winner.bound, winner.finish(length).separators, None
    else:
        ext = min(escalators, key=lambda inst: inst.bottleneck).finish(length)
        bottleneck, separators, merges = ext.bottleneck, ext.separators, ext.merges
    return SolveResult(
        mode=mode,
        algorithm=KNOWN_MAX_TAG,
        bottleneck=bottleneck,
        separators=separators,
        merges=merges,
        instance_count=len(probes) + len(escalators),
        space_peak_words=meter.peak_words,
        elements_read=length,
        epsilon=epsilon,
        warning_flags=warnings,
        probe_instances=len(probes),
        probe_ext_instances=len(escalators),
    )


class UnknownPartSolver:
    """Self-adjusting 2-approximation that maintains separators.

    After each element the bound is 2 * max(running max, running total / p).
    The maintained blocks plus the incoming element are regrouped greedily
    under the new bound, so at most p blocks are ever needed and boundaries
    only move forward. All comparisons are exact via cross-multiplication.
    """

    def __init__(self, num_blocks: int, meter: SpaceMeter | None = None) -> None:
        checked_args(num_blocks)
        self.num_blocks = num_blocks
        self.separators = [1] * (num_blocks + 1)
        self.block_weights = [0] * num_blocks
        self.total = 0
        self.max_weight = 0
        self.elements_read = 0
        self.meter = meter if meter is not None else SpaceMeter()
        self.meter.charge(UNKNOWN_PART_DRIVER_WORDS + 2 * num_blocks)

    @property
    def bound(self) -> Fraction:
        return Fraction(2 * max(self.max_weight * self.num_blocks, self.total), self.num_blocks)

    def feed(self, weight: int) -> None:
        """Take one weight, already validated by the caller (see `_drive`)."""
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
        # not greedy_cuts: routing the regroup through it doubled the solve time
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

    def result(self) -> SolveResult:
        return SolveResult(
            mode=PART_MODE,
            algorithm=UNKNOWN_TAG,
            bottleneck=self.bound,
            separators=tuple(self.separators),
            merges=None,
            instance_count=1,
            space_peak_words=self.meter.peak_words,
            elements_read=self.elements_read,
            epsilon=None,
        )


def solve_unknown_part(
    stream: Iterable[int], num_blocks: int, *, meter: SpaceMeter | None = None
) -> SolveResult:
    solver = UnknownPartSolver(num_blocks, meter)
    _drive(stream, [], [solver])
    return solver.result()


def solve_unknown_partb(
    stream: Iterable[int], num_blocks: int, *, meter: SpaceMeter | None = None
) -> SolveResult:
    """Value-only 2-approximation: max(running max, total / p) + running max.

    Its own loop, not `_drive`: the per-element cost of `_drive` would be a
    sizeable share of this pass. Weights are validated the same way.
    """
    checked_args(num_blocks, PARTB_MODE)
    meter = meter if meter is not None else SpaceMeter()
    meter.charge(UNKNOWN_VALUE_DRIVER_WORDS)
    length = 0
    total = 0
    biggest = 0
    for weight in stream:
        if type(weight) is not int or weight < 0:
            raise ValueError(f"weights must be non-negative integers, got {weight!r}")
        length += 1
        total += weight
        if weight > biggest:
            biggest = weight
    bottleneck = max(Fraction(biggest), Fraction(total, num_blocks)) + biggest
    return SolveResult(
        mode=PARTB_MODE,
        algorithm=UNKNOWN_TAG,
        bottleneck=bottleneck,
        separators=None,
        merges=None,
        instance_count=0,
        space_peak_words=meter.peak_words,
        elements_read=length,
        epsilon=None,
    )


def _solve_unknown(
    stream: Iterable[int], num_blocks: int, *, mode: str, meter: SpaceMeter | None
) -> SolveResult:
    checked_args(num_blocks, mode)
    solver = solve_unknown_part if mode == PART_MODE else solve_unknown_partb
    return solver(stream, num_blocks, meter=meter)


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
    meter: SpaceMeter | None = None,
) -> SolveResult:
    """Run the solver registered under `tag`, handing it epsilon and the
    declarations it takes from `profile`; other declarations are ignored."""
    if tag not in SOLVERS:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    solver, names = SOLVERS[tag]
    given = {"epsilon": epsilon, **vars(profile)}
    missing = [name for name in names if given[name] is None]
    if missing:
        raise ValueError(f"{tag} requires {', '.join(missing)}")
    return solver(stream, num_blocks, *(given[name] for name in names), mode=mode, meter=meter)


def dispatch(
    stream: Iterable[int],
    num_blocks: int,
    epsilon,
    profile: KnowledgeProfile,
    *,
    mode: str = PART_MODE,
    meter: SpaceMeter | None = None,
) -> SolveResult:
    """Route to the best solver the profile allows.

    A declared total wins; otherwise a declared maximum selects the
    doubling-and-ratio solver even when the length is also declared, since
    its working state is smaller. The max-and-length solver is only reached
    by calling it directly. With no declarations the 2-approximation runs,
    picking the separator or value-only variant from `mode`.
    """
    if profile.total_weight is not None:
        tag = KNOWN_TOTAL_TAG
    elif profile.max_weight is not None:
        tag = KNOWN_MAX_TAG
    else:
        tag = UNKNOWN_TAG
    return solve_tagged(tag, stream, num_blocks, epsilon, profile, mode=mode, meter=meter)
