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

from .core import as_fraction, check_block_count, check_count, int_text
from .feasibility import PART_MODE, _drive, _Walker, checked_args


def checked_base(max_weight, slack) -> tuple[int | Fraction, Fraction]:
    """The escalator's maximum and slack as exact values, an int maximum
    kept as it is; a negative one raises `ValueError`."""
    slack = as_fraction(slack)
    if type(max_weight) is not int:
        max_weight = as_fraction(max_weight)
    if max_weight < 0:
        raise ValueError(f"maximum weight must be non-negative, got {int_text(max_weight)}")
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {int_text(slack)}")
    return max_weight, slack


@dataclass(frozen=True)
class ProbeExtResult:
    bottleneck: Fraction
    merges: int
    separators: tuple[int, ...] | None = None


class ProbeExtInstance(_Walker):
    """Never-failing feasibility state machine with a doubling threshold."""

    __slots__ = ("max_weight", "_num", "_den", "merges")
    # element index, block ordinal, block weight, threshold, escalation counter
    STATE_WORDS = 5

    def __init__(
        self, max_weight: int, num_blocks: int, slack=0, *, store_separators: bool = True
    ) -> None:
        check_block_count(num_blocks, store_separators)
        max_weight, slack = checked_base(max_weight, slack)
        # the base max_weight * (1 + slack) as an exact num / den, in ints
        # (an int has a numerator and a denominator too)
        self._start(max_weight, max_weight.numerator * (slack.denominator + slack.numerator),
                    max_weight.denominator * slack.denominator, num_blocks, store_separators)

    def _start(self, max_weight, num, den, num_blocks, store_separators) -> ProbeExtInstance:
        """Start from the base num / den, all arguments checked; return self."""
        self.max_weight = max_weight
        self._num, self._den = num, den
        self.merges = 0
        super().__init__(num // den, num_blocks, store_separators)
        return self

    @property
    def bottleneck(self) -> Fraction:
        """Current threshold as an exact rational: 2^merges * max_weight * (1 + slack)."""
        return Fraction(self._num << self.merges, self._den)

    def feed(self, weight: int) -> None:
        """Take one weight: a one-element chunk through `_drive`, which also
        refuses a weight above the declared maximum."""
        _drive((weight,), [self], declared_max=self.max_weight)

    def _cannot_place(self, index: int, element: int) -> bool:
        """The merge rule (see the module docstring), with `index` as the
        tentative boundary s_p; the instance never fails."""
        blocks = self.num_blocks
        self.merges += 1
        # floor of the exact rational 2^merges * base, not a repeated floor
        self.threshold_floor = (self._num << self.merges) // self._den
        if self.separators is not None:
            self.separators.append(index)
            self.separators = self.separators[1::2]
        self.block_ordinal = blocks // 2 + 1
        if blocks % 2 == 0:
            self.block_weight = element  # tentative boundary kept: fresh block
        else:
            self.block_weight += element  # tentative boundary dropped: absorbed
        return True

    def finish(self, length: int | None = None) -> ProbeExtResult:
        return ProbeExtResult(self.bottleneck, self.merges, self._close(length))


def probe_ext_run(
    stream: Iterable[int],
    max_weight: int,
    num_blocks: int,
    slack=0,
    *,
    mode: str = PART_MODE,
) -> ProbeExtResult:
    checked_args(num_blocks, mode)
    instance = ProbeExtInstance(
        max_weight, num_blocks, slack, store_separators=(mode == PART_MODE)
    )
    _drive(stream, [instance], declared_max=instance.max_weight)
    return instance.finish()


def weight_lower_bound(merges: int, num_blocks: int, max_weight: int, slack=0) -> Fraction:
    """Minimum stream total forced by reaching the given escalation count.

    Exact rational value of
    (p*m/2) * (2^i*(1+a) - a - i) - (m/2) * (i + a)
    for i = merges, p = num_blocks, m = max_weight, a = slack.
    """
    check_count("merges", merges)
    if merges < 1:
        raise ValueError("weight bound is defined only after at least one merge")
    check_block_count(num_blocks)
    max_weight, a = checked_base(max_weight, slack)
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
    check_count("merges", merges)
    if merges < 2:
        raise ValueError("ratio bound is defined only for at least two merges")
    _, a = checked_base(0, slack)
    denominator = (1 << (merges - 1)) * (1 + a) - merges - a
    if denominator <= 0:
        return None
    return 2 + 2 * (a + merges) / denominator
