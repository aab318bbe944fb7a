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
import dataclasses
import json
import math
import time
from fractions import Fraction
from typing import IO

from .core import StreamStats, WeightChunks, int_text, parse_int
from .feasibility import PART_MODE, checked_args
from .generators import GeneratorSpec
from .oracle import _binsearch_optimum
from .schedulers import UNKNOWN_TAG, KnowledgeProfile, SolveResult, solve_tagged

BENCH_CSV_HEADER = [
    *(field.name for field in dataclasses.fields(GeneratorSpec)),
    "p", "mode", "algorithm", "epsilon", "bottleneck_num", "bottleneck_den",
    "bottleneck_float", "oracle_optimum", "ratio", "merges", "instance_count",
    "space_peak_words", "elements_read", "wall_time_s", "error",
]

HARD_KINDS = ("yz", "index")


def _float(value: Fraction) -> float:
    """`float(value)` for a non-negative exact value, inf past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


@dataclasses.dataclass(slots=True)
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
            return 1.0 if self.result.bottleneck == 0 else math.inf
        return _float(self.result.bottleneck / self.oracle_optimum)

    def to_csv_row(self) -> list:
        """The record's values in `BENCH_CSV_HEADER` order: the generator's
        fields, then the result's, then the record's own, which win (an
        unknown-knowledge result has no epsilon, the record does). Exact
        values are written with `int_text`."""
        spec = self.generator
        values = {} if spec is None else {name: getattr(spec, name)
                                         for name in GeneratorSpec.__match_args__}
        if self.result is not None:
            values.update(self.result.to_json_dict(),
                          bottleneck_float=_float(self.result.bottleneck))
        values.update(p=self.num_blocks, mode=self.mode, algorithm=self.algorithm,
                      epsilon=self.epsilon, oracle_optimum=self.oracle_optimum,
                      ratio=self.ratio, wall_time_s=round(self.wall_time_s, 6),
                      error=self.error or "")
        return [int_text(value) if type(value) in (int, Fraction) else value
                for value in map(values.get, BENCH_CSV_HEADER)]


def run_bench(rows: list[dict]) -> list[BenchRecord]:
    """One record per row: generate its stream, solve it, and take the exact
    optimum with the binary-search oracle.

    A row's weights are checked once, by `StreamStats.from_weights`. The
    solver then reads the list's checked chunks (`WeightChunks.of_checked`),
    and the oracle's core takes the checked maximum, so neither scans the
    list again. `wall_time_s` times the solver call alone.
    """
    records = []
    for row in rows:
        fields = row if isinstance(row, dict) else {}
        algorithm = fields.get("algorithm", UNKNOWN_TAG)
        mode = fields.get("mode", PART_MODE)
        num_blocks = fields.get("p", 2)
        spec = epsilon = result = optimum = error = None
        elapsed = 0.0
        try:
            if fields is not row:
                raise ValueError(f"bench row must be an object, got {row!r}")
            try:
                spec = GeneratorSpec(**fields.get("generator", {}))
            except TypeError as exc:  # unknown or missing generator fields
                raise ValueError(str(exc)) from None
            epsilon = checked_args(num_blocks, mode, fields.get("epsilon"))
            if spec.kind in HARD_KINDS and num_blocks != 2:
                raise ValueError(f"generator kind {spec.kind!r} implies p = 2")
            weights = spec.make()
            stats = StreamStats.from_weights(weights)
            profile = KnowledgeProfile(max_weight=stats.max_weight, length=stats.length,
                                       total_weight=stats.total_weight)
            started = time.perf_counter()
            result = solve_tagged(algorithm, WeightChunks.of_checked(weights), num_blocks,
                                  epsilon, profile, mode=mode)
            elapsed = time.perf_counter() - started
            optimum = _binsearch_optimum(weights, stats.max_weight, num_blocks).optimum
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
    rows = json.load(fp, parse_int=parse_int)
    if not isinstance(rows, list):
        raise ValueError("bench config must be a JSON list of row objects")
    return rows


def write_csv(records: list[BenchRecord], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(BENCH_CSV_HEADER)
    for record in records:
        writer.writerow(record.to_csv_row())
