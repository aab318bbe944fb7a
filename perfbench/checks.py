"""Output checks that do not trust the code under test.

The optimum comes from the harness's own prefix-sum greedy search rather than
from ``streampart.oracle``, so a fault shared by the solvers and the oracle
still shows. Separators are checked against block sums recomputed from the
same prefix sums.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

KNOWN_M_TAG = "known-m"
UNKNOWN_TAG = "unknown-2approx"
# tags whose (1+eps) guarantee holds for every eps
SANDWICH_TAGS = ("known-S", "known-mn")
# known-m's (1+eps) guarantee is established only below this eps
KNOWN_M_GUARANTEE_LIMIT = Fraction(1, 64)


@dataclass(frozen=True)
class Case:
    """One solve: the stream with its prefix sums, the solver and its parameters."""

    prefix: tuple[int, ...]
    num_blocks: int
    tag: str
    mode: str
    epsilon: Fraction | None

    @classmethod
    def of(cls, weights, num_blocks: int, tag: str, mode: str, epsilon) -> "Case":
        epsilon = None if epsilon is None else Fraction(epsilon)
        return cls((0, *accumulate(weights)), num_blocks, tag, mode, epsilon)

    @property
    def length(self) -> int:
        return len(self.prefix) - 1

    @property
    def pin_key(self) -> str:
        return (f"{self.tag}|{self.mode}|p={self.num_blocks}|eps={self.epsilon}"
                f"|n={self.length}")

    def optimum(self) -> int:
        return reference_optimum(self.prefix, self.num_blocks)


def greedy_fits(prefix, threshold: int, num_blocks: int) -> bool:
    """Does greedy maximal packing under `threshold` use at most `num_blocks` blocks?"""
    length = len(prefix) - 1
    pos = 0
    for _ in range(num_blocks):
        reach = bisect_right(prefix, prefix[pos] + threshold, pos) - 1
        if reach >= length:
            return True
        if reach == pos:
            return False  # the next element alone exceeds the threshold
        pos = reach
    return False


def reference_optimum(prefix, num_blocks: int) -> int:
    """Least integer bottleneck of a partition into `num_blocks` contiguous blocks."""
    total = prefix[-1]
    low, high = -(-total // num_blocks), total
    while low < high:
        mid = (low + high) // 2
        if greedy_fits(prefix, mid, num_blocks):
            high = mid
        else:
            low = mid + 1
    return low


def separator_problems(prefix, num_blocks: int, separators, threshold: int) -> list[str]:
    length = len(prefix) - 1
    if separators is None or len(separators) != num_blocks + 1:
        return [f"expected {num_blocks + 1} separators, got {separators!r}"]
    if separators[0] != 1 or separators[-1] != length + 1:
        return [f"separators {separators[0]}..{separators[-1]} do not cover 1..{length + 1}"]
    if any(b < a for a, b in zip(separators, separators[1:])):
        return ["separators decrease"]
    heaviest = max(prefix[b - 1] - prefix[a - 1] for a, b in zip(separators, separators[1:]))
    if heaviest > threshold:
        return [f"a block weighs {heaviest}, above the floored bottleneck {threshold}"]
    return []


def check_result(case: Case, payload: dict, optimum: int, pins: dict) -> list[str]:
    """Every guarantee the result must meet; an empty list means it passed."""
    problems = []
    if payload["elements_read"] != case.length:
        problems.append(f"elements_read {payload['elements_read']} != n = {case.length}")
    bound = Fraction(payload["bottleneck_num"], payload["bottleneck_den"])
    if bound < optimum:
        problems.append(f"bottleneck {bound} is below the optimum {optimum}")
    limit = None
    if case.tag in SANDWICH_TAGS or (
        case.tag == KNOWN_M_TAG and case.epsilon < KNOWN_M_GUARANTEE_LIMIT
    ):
        limit = (1 + case.epsilon) * optimum
    elif case.tag == UNKNOWN_TAG:
        limit = 2 * optimum
    if limit is not None and bound > limit:
        problems.append(f"bottleneck {bound} exceeds the guarantee {limit}")
    if case.mode == "part":
        threshold = bound.numerator // bound.denominator
        problems.extend(separator_problems(case.prefix, case.num_blocks,
                                           payload["separators"], threshold))
    elif payload["separators"] is not None:
        problems.append("a partb result carries separators")
    counts = [payload["instance_count"], payload["space_peak_words"]]
    pinned = pins.get(case.pin_key)
    if pinned is None:
        problems.append(f"no pinned counts for {case.pin_key}")
    elif counts != pinned:
        problems.append(f"instance_count, space_peak_words = {counts}, pinned {pinned}")
    return [f"{case.pin_key}: {p}" for p in problems]


def ratio_to_opt(payload: dict, optimum: int) -> float:
    bound = Fraction(payload["bottleneck_num"], payload["bottleneck_den"])
    if optimum == 0:
        return 1.0 if bound == 0 else float("inf")
    return float(bound / optimum)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fp:
        return json.load(fp)
