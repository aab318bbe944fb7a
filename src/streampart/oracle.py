"""Exact offline optima for in-memory instances, plus bound realization.

The binary-search oracle walks the closed sandwich interval
``[max(ceil(S/p), m), floor((S + (p-1)*m) / p)]`` (`feasibility.sandwich`)
whose upper end is always feasible, testing each value with the walk of a
streaming probe over the whole list's prefix sums, one chunk from a fresh
state. It holds the sums as a pass does: machine words, an `array('Q')`,
unless a sum could pass 2**64 - 1. The DP, which does not probe, is an
independent cross-check; its inner loop reads every cell, so it keeps its
sums and rows as lists of ints.

Each public oracle checks its block count and its list (`core.checked_max`)
and hands both, with the list's largest weight, to its private core. A
caller that has already checked the list, `bench.run_bench` with its
`StreamStats` and `streampart oracle` with the parser's list, calls the core
with that largest weight and does not scan the list again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import InfeasibleBoundError, as_fraction, checked_max, int_text
from .feasibility import (PARTB_MODE, ProbeInstance, _sum_buffer, checked_args, probe_run,
                          sandwich)


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    method: str


def opt_bottleneck_binsearch(weights: Sequence[int], num_blocks: int) -> OracleResult:
    """Least feasible bottleneck, by binary search inside the sandwich interval."""
    checked_args(num_blocks, PARTB_MODE)  # a value, no separators
    return _binsearch_optimum(weights, checked_max(weights), num_blocks)


def _binsearch_optimum(weights: Sequence[int], heaviest: int, num_blocks: int) -> OracleResult:
    """`opt_bottleneck_binsearch` of checked `weights`, whose largest weight
    is `heaviest`, and a checked block count."""
    prefix = _sum_buffer(heaviest, len(weights))
    prefix.extend(accumulate(weights))
    low, high = sandwich(prefix[-1], heaviest, num_blocks)
    while low < high:
        mid = (low + high) // 2
        if ProbeInstance(mid, num_blocks, store_separators=False).walk(prefix, heaviest):
            high = mid
        else:
            low = mid + 1
    if not ProbeInstance(low, num_blocks, store_separators=False).walk(prefix, heaviest):
        raise RuntimeError("sandwich interval contained no feasible value")
    return OracleResult(low, "binsearch")


def opt_bottleneck_dp(weights: Sequence[int], num_blocks: int) -> OracleResult:
    """Least feasible bottleneck, by the prefix recurrence over the block
    count, whose split points only move right: O(n * min(p, n)) time, two
    rows of n + 1 ints, so quadratic in n as p nears n."""
    checked_args(num_blocks, PARTB_MODE)  # a value, no separators
    return _dp_optimum(weights, checked_max(weights), num_blocks)


def _dp_optimum(weights: Sequence[int], heaviest: int, num_blocks: int) -> OracleResult:
    """`opt_bottleneck_dp` of checked `weights`, whose largest weight is
    `heaviest`, and a checked block count; it stops at the first block
    count whose optimum is `heaviest`, which no more blocks can go below."""
    n = len(weights)
    prefix = list(accumulate(weights, initial=0))
    # best[i] = least bottleneck for the first i elements with the current block budget
    best = prefix[:]
    for _ in range(1, min(num_blocks, n)):
        if best[n] == heaviest:
            break
        nxt = [0] * (n + 1)
        # max(best[j], prefix[i] - prefix[j]) is least at the first j whose
        # head best[j] reaches its tail, or at the j before it; best[j] grows
        # and the tail shrinks with j, and that j never moves left as i grows
        j = 0
        for i in range(1, n + 1):
            target = prefix[i]
            while best[j] < target - prefix[j]:
                j += 1
            nxt[i] = min(best[j], target - prefix[j - 1]) if j else best[j]
        best = nxt
    return OracleResult(best[n], "dp")


def realize_partition(weights: Sequence[int], num_blocks: int, bound) -> tuple[int, ...]:
    """Second pass: turn a feasible bottleneck value into separator positions.

    A probe's pass under floor(bound) (`probe_run`); raises
    InfeasibleBoundError when the bound is below the optimum.
    """
    outcome = probe_run(weights, bound, num_blocks)
    if not outcome.success:
        raise InfeasibleBoundError(
            f"bound {int_text(as_fraction(bound))} admits no partitioning into "
            f"{num_blocks} blocks ({outcome.failure.value})"
        )
    return outcome.separators
