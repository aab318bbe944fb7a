"""Escalating feasibility test: merge adjacent blocks instead of failing.

The instance starts with threshold ``max_weight * (1 + slack)``. Whenever an
element can neither extend the current block nor open a fresh one, the
threshold doubles and adjacent blocks are merged pairwise, so the test never
fails. After i escalations the threshold is ``2^i * max_weight * (1 + slack)``
and the blocks still form a valid partitioning whose sums respect its floor.

Merge bookkeeping, with boundaries s_1..s_{p-1} recorded and the incoming
element at index t treated as a tentative boundary s_p = t:

* every second boundary survives: the new s_a is the old s_{2a};
* for an even block count the tentative boundary survives as the last one,
  so the incoming element opens a fresh block;
* for an odd block count the tentative boundary is dropped and the incoming
  element is absorbed into the still-open last block.

`weight_lower_bound` and `approx_factor_bound` are the closed forms that tie
the number of escalations to the stream total and to the worst-case ratio
between the final threshold and the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import DeclaredBoundError, SpaceMeter, as_fraction
from .feasibility import PART_MODE, _drive, checked_args, pad_separators

# element index, block ordinal, block weight, threshold, escalation counter
PROBE_EXT_STATE_WORDS = 5


@dataclass(frozen=True)
class ProbeExtResult:
    bottleneck: Fraction
    merges: int
    separators: tuple[int, ...] | None = None


class ProbeExtInstance:
    """Never-failing feasibility state machine with a doubling threshold."""

    __slots__ = (
        "max_weight",
        "num_blocks",
        "slack",
        "_base",
        "merges",
        "threshold_floor",
        "block_ordinal",
        "block_weight",
        "next_index",
        "separators",
    )

    def __init__(
        self,
        max_weight: int,
        num_blocks: int,
        slack=0,
        *,
        store_separators: bool = True,
        meter: SpaceMeter | None = None,
    ) -> None:
        checked_args(num_blocks)
        slack = as_fraction(slack)
        if max_weight < 0:
            raise ValueError(f"maximum weight must be non-negative, got {max_weight}")
        if slack < 0:
            raise ValueError(f"slack must be non-negative, got {slack}")
        self.max_weight = max_weight
        self.num_blocks = num_blocks
        self.slack = slack
        self._base = as_fraction(max_weight) * (1 + slack)
        self.merges = 0
        self.threshold_floor = self._base.numerator // self._base.denominator
        self.block_ordinal = 1
        self.block_weight = 0
        self.next_index = 1
        self.separators: list[int] | None = [] if store_separators else None
        if meter is not None:
            extra = num_blocks - 1 if store_separators else 0
            meter.charge(PROBE_EXT_STATE_WORDS + extra)

    @property
    def bottleneck(self) -> Fraction:
        """Current threshold as an exact rational: 2^merges * max_weight * (1 + slack)."""
        return self._base * (1 << self.merges)

    # apart from ProbeInstance.feed: one inherited feed ran known-m-grid ~21% slower
    def feed(self, weight: int) -> None:
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        if weight > self.max_weight:
            raise DeclaredBoundError(
                f"element {weight} exceeds declared maximum weight {self.max_weight}"
            )
        if self.block_weight + weight <= self.threshold_floor:
            self.block_weight += weight
        elif self.block_ordinal < self.num_blocks:
            if self.separators is not None:
                self.separators.append(self.next_index)
            self.block_ordinal += 1
            self.block_weight = weight
        else:
            self._escalate(weight)
        self.next_index += 1

    def _escalate(self, weight: int) -> None:
        blocks = self.num_blocks
        self.merges += 1
        # floor of the exact rational 2^merges * base, not a repeated floor
        self.threshold_floor = (self._base.numerator << self.merges) // self._base.denominator
        if self.separators is not None:
            boundaries = self.separators + [self.next_index]  # tentative boundary s_p
            self.separators = [boundaries[2 * a + 1] for a in range(blocks // 2)]
        self.block_ordinal = blocks // 2 + 1
        if blocks % 2 == 0:
            self.block_weight = weight  # tentative boundary kept: fresh block
        else:
            self.block_weight += weight  # tentative boundary dropped: absorbed

    def finish(self, length: int | None = None) -> ProbeExtResult:
        fed = self.next_index - 1
        if length is not None and length != fed:
            raise ValueError(f"stream length mismatch: fed {fed} elements, caller says {length}")
        if self.separators is None:
            return ProbeExtResult(self.bottleneck, self.merges)
        separators = pad_separators(self.separators, self.num_blocks, fed)
        return ProbeExtResult(self.bottleneck, self.merges, separators)


def probe_ext_run(
    stream: Iterable[int],
    max_weight: int,
    num_blocks: int,
    slack=0,
    *,
    mode: str = PART_MODE,
    meter: SpaceMeter | None = None,
) -> ProbeExtResult:
    checked_args(num_blocks, mode)
    instance = ProbeExtInstance(
        max_weight, num_blocks, slack, store_separators=(mode == PART_MODE), meter=meter
    )
    _drive(stream, [], [instance])
    return instance.finish()


def weight_lower_bound(merges: int, num_blocks: int, max_weight: int, slack=0) -> Fraction:
    """Minimum stream total forced by reaching the given escalation count.

    Exact rational value of
    (p*m/2) * (2^i*(1+a) - a - i) - (m/2) * (i + a)
    for i = merges, p = num_blocks, m = max_weight, a = slack.
    """
    if merges < 1:
        raise ValueError("weight bound is defined only after at least one merge")
    a = as_fraction(slack)
    doubled = (1 << merges) * (1 + a)
    return (
        Fraction(num_blocks * max_weight, 2) * (doubled - a - merges)
        - Fraction(max_weight, 2) * (merges + a)
    )


def approx_factor_bound(merges: int, slack=0) -> Fraction | None:
    """Worst-case ratio of the final threshold to the optimum, or None.

    Exact rational value of 2 + 2*(a+i) / (2^(i-1)*(1+a) - i - a); the bound
    is undefined (None) when the denominator is not positive, which happens
    at two merges with zero slack.
    """
    if merges < 2:
        raise ValueError("ratio bound is defined only for at least two merges")
    a = as_fraction(slack)
    denominator = (1 << (merges - 1)) * (1 + a) - merges - a
    if denominator <= 0:
        return None
    return 2 + 2 * (a + merges) / denominator
