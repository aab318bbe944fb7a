"""Exact offline optima for in-memory instances, plus bound realization.

The binary-search oracle walks the closed sandwich interval
``[max(ceil(S/p), m), floor((S + (p-1)*m) / p)]`` whose upper end is always
feasible, testing feasibility with `feasibility.greedy_cuts`, the whole-list
form of the greedy maximal packing the streaming probes use. The quadratic DP
is an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import InfeasibleBoundError, as_fraction, floor_fraction
from .feasibility import _drive, checked_args, greedy_cuts, pad_separators


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    method: str


def opt_bottleneck_binsearch(weights: Sequence[int], num_blocks: int) -> OracleResult:
    """Least feasible bottleneck, by binary search inside the sandwich interval."""
    checked_args(num_blocks)
    _, total, heaviest = _drive(weights, [], [])
    prefix = list(accumulate(weights, initial=0))
    low = max(-(-total // num_blocks), heaviest)
    high = (total + (num_blocks - 1) * heaviest) // num_blocks
    while low < high:
        mid = (low + high) // 2
        if isinstance(greedy_cuts(prefix, mid, num_blocks), list):
            high = mid
        else:
            low = mid + 1
    if not isinstance(greedy_cuts(prefix, low, num_blocks), list):
        raise RuntimeError("sandwich interval contained no feasible value")
    return OracleResult(low, "binsearch")


def opt_bottleneck_dp(
    weights: Sequence[int], num_blocks: int, *, max_cells: int = 20_000_000
) -> OracleResult:
    """Least feasible bottleneck, by the classic quadratic prefix recurrence."""
    checked_args(num_blocks)
    n, _, _ = _drive(weights, [], [])
    if n * n * num_blocks > max_cells:
        raise ValueError(
            f"instance too large for the quadratic oracle "
            f"(n^2 * p = {n * n * num_blocks} > {max_cells})"
        )
    prefix = [0] * (n + 1)
    for idx, w in enumerate(weights, start=1):
        prefix[idx] = prefix[idx - 1] + w
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
    return OracleResult(best[n], "dp")


def realize_partition(weights: Sequence[int], num_blocks: int, bound) -> tuple[int, ...]:
    """Second pass: turn a feasible bottleneck value into separator positions.

    Greedy maximal packing under floor(bound); raises InfeasibleBoundError
    when the bound is below the optimum.
    """
    checked_args(num_blocks)
    bound = as_fraction(bound)
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    length, _, _ = _drive(weights, [], [])
    cuts = greedy_cuts(list(accumulate(weights, initial=0)), floor_fraction(bound), num_blocks)
    if not isinstance(cuts, list):
        raise InfeasibleBoundError(
            f"bound {bound} admits no partitioning into {num_blocks} blocks ({cuts.value})"
        )
    return pad_separators(cuts, num_blocks, length)
