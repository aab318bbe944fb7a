"""Benchmark runner: generate a stream, solve it, compare with the oracle.

Config rows are dictionaries (usually loaded from a JSON list):

    {"generator": {"kind": "uniform", "n": 200, "m": 8, "seed": 3},
     "algorithm": "known-S", "mode": "partb", "epsilon": "1/10", "p": 4}

`algorithm` is one of the solver tags; the declared knowledge handed to the
solver is taken from the generated stream itself, so declarations are always
truthful. Hard generator kinds (yz, index) imply p = 2. Row failures are
captured in the record instead of aborting the run.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .core import StreamStats
from .feasibility import PART_MODE, checked_args
from .generators import GeneratorSpec
from .oracle import opt_bottleneck_binsearch
from .schedulers import UNKNOWN_TAG, KnowledgeProfile, SolveResult, solve_tagged

BENCH_CSV_HEADER = [
    "kind",
    "n",
    "m",
    "t",
    "i",
    "bits",
    "seed",
    "p",
    "mode",
    "algorithm",
    "epsilon",
    "bottleneck_num",
    "bottleneck_den",
    "bottleneck_float",
    "oracle_optimum",
    "ratio",
    "merges",
    "instance_count",
    "space_peak_words",
    "elements_read",
    "wall_time_s",
    "error",
]

HARD_KINDS = ("yz", "index")


@dataclass
class BenchRecord:
    generator: GeneratorSpec | None  # None when the row's generator fields are malformed
    num_blocks: int
    mode: str
    algorithm: str
    epsilon: Fraction | None
    result: SolveResult | None
    oracle_optimum: int | None
    wall_time_s: float
    error: str | None = None

    @property
    def ratio(self) -> float | None:
        if self.result is None or self.oracle_optimum is None:
            return None
        if self.oracle_optimum == 0:
            return 1.0 if self.result.bottleneck == 0 else float("inf")
        return float(self.result.bottleneck / self.oracle_optimum)

    def to_csv_row(self) -> list:
        result = self.result
        return [
            *(getattr(self.generator, name, None)
              for name in ("kind", "n", "m", "t", "i", "bits", "seed")),
            self.num_blocks,
            self.mode,
            self.algorithm,
            None if self.epsilon is None else str(self.epsilon),
            None if result is None else result.bottleneck.numerator,
            None if result is None else result.bottleneck.denominator,
            None if result is None else float(result.bottleneck),
            self.oracle_optimum,
            self.ratio,
            None if result is None else result.merges,
            None if result is None else result.instance_count,
            None if result is None else result.space_peak_words,
            None if result is None else result.elements_read,
            round(self.wall_time_s, 6),
            self.error or "",
        ]


def run_bench(rows: list[dict]) -> list[BenchRecord]:
    records = []
    for row in rows:
        algorithm = row.get("algorithm", UNKNOWN_TAG)
        mode = row.get("mode", PART_MODE)
        num_blocks = row.get("p", 2)
        spec = epsilon = result = optimum = error = None
        elapsed = 0.0
        try:
            try:
                spec = GeneratorSpec(**row.get("generator", {}))
            except TypeError as exc:  # unknown or missing generator fields
                raise ValueError(str(exc)) from None
            epsilon = checked_args(num_blocks, mode, row.get("epsilon"))
            if spec.kind in HARD_KINDS and num_blocks != 2:
                raise ValueError(f"generator kind {spec.kind!r} implies p = 2")
            weights = spec.make()
            stats = StreamStats.from_weights(weights)
            profile = KnowledgeProfile(max_weight=stats.max_weight, length=stats.length,
                                       total_weight=stats.total_weight)
            started = time.perf_counter()
            result = solve_tagged(algorithm, iter(weights), num_blocks, epsilon, profile,
                                  mode=mode)
            elapsed = time.perf_counter() - started
            optimum = opt_bottleneck_binsearch(weights, num_blocks).optimum
        except (ValueError, RuntimeError) as exc:
            result = optimum = None
            error = str(exc)
        records.append(
            BenchRecord(
                generator=spec,
                num_blocks=num_blocks,
                mode=mode,
                algorithm=algorithm,
                epsilon=epsilon,
                result=result,
                oracle_optimum=optimum,
                wall_time_s=elapsed,
                error=error,
            )
        )
    return records


def load_config(fp: IO[str]) -> list[dict]:
    rows = json.load(fp)
    if not isinstance(rows, list):
        raise ValueError("bench config must be a JSON list of row objects")
    return rows


def write_csv(records: list[BenchRecord], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(BENCH_CSV_HEADER)
    for record in records:
        writer.writerow(record.to_csv_row())
