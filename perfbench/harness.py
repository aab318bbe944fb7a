"""Seeded benchmark of streampart, end to end and by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports streampart from ``src/`` of the
same tree and exits with status 2 if that is missing. One process, one
thread, ops one after another (a closed loop with a single client). Op ``k``
uses seed ``seed + k``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are human-readable detail.

``--trace 0`` reports the end-to-end metrics with no tracing:

* ``elements_per_s``: elements in one op divided by the median op time.
* ``setup_s``: median time of the same op on a one-element stream holding
  the declared maximum (argument parsing, grid construction, finish, JSON).
* ``peak_alloc_bytes``: tracemalloc peak of one untimed op after the timed
  ones (for ``bench-sweep``, of its one-element variant; see workloads.py).
* ``ratio_to_opt.max``: largest bottleneck / optimum over the first
  ``min_ops`` ops, so it depends on the seed only.

Op times are scaled to a reference host speed: each call of an op is
multiplied by ``CALIB_REF_S`` over the mean of two calibrations (see
``spans.Calibrator``) timed just before and just after it. On a 2-core x86
virtual machine shared with other tenants, the host slows down and speeds up
by up to 1.45x for seconds at a time; the scaling cut the spread of 8-second
medians from about 0.2 to about 0.03-0.06 (interquartile range over median).
Raw times are printed on the detail lines.

``--trace 1`` times calls into each module's public functions and reports the
per-layer metrics; spans are kept in memory and written to
``.perfbench_out/spans-<workload>-<seed>.json`` when the run ends.

Every op's output is checked (see checks.py). An op fails if it raises, if
``cli.main`` returns non-zero, if a ``BenchRecord.error`` is set, if a check
fails, or if its output differs from the reference recorded for its seed in
``reference.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter

from .checks import check_result, digest, load_reference, ratio_to_opt
from .spans import Calibrator, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Calibrator medians, in seconds, on the reference host (a 2-core x86 virtual
# machine, CPython 3.11); op times are reported as if the host ran at that speed
CALIB_REF_S = {"parse": 0.0027, "grid": 0.0031}
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 5
# share of a traced run spent on untraced ops, for trace.overhead_ratio
UNTRACED_SHARE = 0.3
MAX_REPORTED_FAILURES = 5


def load_streampart():
    """Import streampart from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "streampart" / "__init__.py").is_file():
        raise ImportError(f"no streampart package under {src}")
    sys.path.insert(0, str(src))
    import streampart

    if not Path(streampart.__file__).resolve().is_relative_to(src):
        raise ImportError(f"streampart was imported from {streampart.__file__}, not {src}")
    return streampart


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return None
    percent = (100 * (count - 10)) // count
    return percent, ordered[(count * percent) // 100]


class Runner:
    def __init__(self, workload, reference: dict, workdir: Path) -> None:
        self.workload = workload
        self.pins = reference["pins"]
        self.digests = reference["digests"].get(workload.name, {})
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrator = Calibrator(workload.calibration)
        self.ref_s = CALIB_REF_S[workload.calibration]
        self.calib: list[float] = []

    def check(self, op, solved, text) -> list[float] | None:
        """Check one op's results; returns their ratios to the optimum, or
        None after recording a failure."""
        self.attempted += 1
        problems, ratios = [], []
        for item in solved:
            if item.error is not None or item.payload is None:
                problems.append(f"{item.case.pin_key}: {item.error}")
                continue
            optimum = item.case.optimum()
            if item.claimed_optimum is not None and item.claimed_optimum != optimum:
                problems.append(f"{item.case.pin_key}: oracle says {item.claimed_optimum}, "
                                f"reference optimum is {optimum}")
            problems.extend(check_result(item.case, item.payload, optimum, self.pins))
            ratios.append(ratio_to_opt(item.payload, optimum))
        expected = self.digests.get(op.key)
        if expected is not None and digest(text) != expected:
            problems.append(f"op {op.key}: output differs from the recorded reference")
        if problems:
            self.failures.append(f"op {op.key}: " + "; ".join(problems[:3]))
            return None
        return ratios

    def raised(self, op, exc: Exception) -> None:
        self.attempted += 1
        self.failures.append(f"op {op.key}: raised {type(exc).__name__}: {exc}")

    def calibrate(self) -> float:
        seconds = self.calibrator.median()
        self.calib.append(seconds)
        return seconds

    def timed(self, op) -> tuple[float, float, list[float]] | None:
        """Run and check one op: (raw seconds, host-scaled seconds, ratios).

        Each call of the op is scaled by the mean of the calibrations just
        before and just after it."""
        raw = scaled = 0.0
        outcomes = []
        before = self.calibrate()
        try:
            for call in self.workload.calls(op):
                started = perf_counter()
                outcomes.append(call())
                seconds = perf_counter() - started
                after = self.calibrate()
                raw += seconds
                scaled += seconds * self.ref_s / ((before + after) / 2)
                before = after
        except Exception as exc:  # any raise is a failed op, not a harness crash
            self.raised(op, exc)
            return None
        ratios = self.check(op, *self.workload.solved(op, outcomes))
        return None if ratios is None else (raw, scaled, ratios)

    def peak_bytes(self, op) -> int | None:
        tracemalloc.start()
        try:
            outcomes = [call() for call in self.workload.calls(op)]
            peak = tracemalloc.get_traced_memory()[1]
        except Exception as exc:
            self.raised(op, exc)
            return None
        finally:
            tracemalloc.stop()
        ok = self.check(op, *self.workload.solved(op, outcomes)) is not None
        return peak if ok else None

    def setup_seconds(self) -> list[float]:
        setup = self.workload.prepare_setup(self.workdir)
        self.timed(setup)  # warm-up: the first call pays for lazy imports
        scaled = []
        deadline = perf_counter() + SETUP_SECONDS
        for attempt in itertools.count():
            if attempt >= SETUP_MIN_REPEATS and perf_counter() >= deadline:
                return scaled
            timing = self.timed(setup)
            if timing is not None:
                scaled.append(timing[1])

    def ops(self, seed: int, first: int, seconds: float, min_ops: int):
        """Yield (k, op, timing) for ops from index `first` for `seconds`."""
        started = perf_counter()
        k = first
        while k - first < min_ops or perf_counter() - started < seconds:
            op = self.workload.prepare(seed + k, self.workdir)
            yield k, op, self.timed(op)
            k += 1

    def measure(self, seed: int, seconds: float) -> dict:
        wl = self.workload
        setup = self.setup_seconds()
        rates, raw, ratios = [], [], []
        for k, op, timing in self.ops(seed, 0, seconds, wl.min_ops):
            if timing is None:
                continue
            raw.append(timing[0])
            rates.append(op.elements / timing[1])
            if k < wl.min_ops:
                ratios.extend(timing[2])
        memory_op = (wl.prepare_setup(self.workdir) if wl.memory_on_setup
                     else wl.prepare(seed, self.workdir))
        peak = self.peak_bytes(memory_op)

        self.detail(f"elements_per_s {_fmt(rates and median(rates))} "
                    f"over {len(rates)} timed ops")
        if raw:
            tail = high_percentile(raw)
            self.detail(f"raw op seconds median {median(raw):.6g}"
                        + (f", p{tail[0]} {tail[1]:.6g}" if tail else "")
                        + f"; host calibration median {median(self.calib):.6g} s "
                          f"(reference {self.ref_s} s)")
        self.detail(f"{len(setup)} setup ops, scaled median {_fmt(setup and median(setup))} s")
        return {
            "elements_per_s": (median(rates) if rates else 0.0, "1/s"),
            "setup_s": (median(setup) if setup else 0.0, "s"),
            "peak_alloc_bytes": (peak or 0, "bytes"),
            "ratio_to_opt.max": (max(ratios) if ratios else 0.0, "ratio"),
        }

    def trace(self, seed: int, seconds: float) -> dict:
        wl = self.workload
        untraced = list(self.ops(seed, 0, seconds * UNTRACED_SHARE, 1))
        untraced_s = [timing[1] for _, _, timing in untraced if timing]
        tracer = Tracer()
        per_op, first_op = [], None
        first = untraced[-1][0] + 1
        deadline = perf_counter() + seconds * (1 - UNTRACED_SHARE)
        for k in itertools.count(first):
            if k > first and perf_counter() >= deadline:
                break
            op = wl.prepare(seed + k, self.workdir)
            before = self.calibrate()
            try:
                layers, solved, text = wl.trace(op, tracer, k, self.workdir)
            except Exception as exc:
                self.raised(op, exc)
                break
            host = (before + self.calibrate()) / 2
            if self.check(op, solved, text) is not None:
                per_op.append((layers, host))
                first_op = first_op or op
        tracer.write(self.workdir / f"spans-{wl.name}-{seed}.json")
        if not per_op:
            return {}
        alloc = wl.alloc_peak(wl.prepare_setup(self.workdir) if wl.memory_on_setup
                              else first_op)
        return self.layer_metrics(per_op, untraced_s, alloc)

    def layer_metrics(self, per_op, untraced: list[float], alloc: int) -> dict:
        """Medians over the traced ops; times are host-scaled like the ops'."""
        def scaled(seconds):
            return median(seconds(layers) * self.ref_s / host for layers, host in per_op)

        first = per_op[0][0]
        op_s = scaled(lambda l: l.op_s)
        parse_s = scaled(lambda l: l.parse_s)
        pass_s = scaled(lambda l: l.pass_s)
        for name, part in (("core.parse_s", lambda l: l.parse_s),
                           ("schedulers.pass_s", lambda l: l.pass_s)):
            share = median(part(layers) / layers.op_s for layers, _ in per_op)
            self.detail(f"{name} is {share:.1%} of the traced op (median {op_s:.6g} s)")
        return {
            "core.parse_s": (parse_s, "s"),
            "schedulers.setup_s": (scaled(lambda l: l.setup_s), "s"),
            "schedulers.pass_s": (pass_s, "s"),
            "schedulers.finish_s": (scaled(lambda l: l.finish_s), "s"),
            "schedulers.instance_elements_per_s": (
                median(l.instance_elements * host / (l.pass_s * self.ref_s)
                       for l, host in per_op), "1/s"),
            "schedulers.alloc_peak_bytes": (alloc, "bytes"),
            "schedulers.instance_count": (first.instance_count, "count"),
            "schedulers.space_peak_words": (first.space_peak_words, "words"),
            "schedulers.elements_read": (first.elements_read, "count"),
            "feasibility.ns_per_element": (scaled(lambda l: 1e9 * l.probe_s / l.elements), "ns"),
            "probe_ext.ns_per_element": (
                scaled(lambda l: 1e9 * l.probe_ext_s / l.elements), "ns"),
            "probe_ext.merges": (first.probe_ext_merges, "count"),
            "oracle.binsearch_s": (scaled(lambda l: l.oracle_s), "s"),
            "generators.make_s": (scaled(lambda l: l.make_s), "s"),
            "cli.overhead_s": (scaled(lambda l: l.cli_s), "s"),
            "host.calib_s": (median(self.calib), "s"),
            "trace.overhead_ratio": (op_s / median(untraced) if untraced else 0.0, "ratio"),
        }

    @staticmethod
    def detail(line: str) -> None:
        print(f"# {line}")


def _fmt(value) -> str:
    return f"{value:.6g}" if value else "n/a"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; op k uses seed + k (default 0, the seed "
                             "the exactness reference was recorded from)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed ops run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_streampart()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from .workloads import WORKLOADS  # imports streampart

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(workload, load_reference(), OUT_DIR)
    Runner.detail(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, "
                  f"trace {args.trace}")
    if args.trace:
        metrics = runner.trace(args.seed, args.seconds)
    else:
        metrics = runner.measure(args.seed, args.seconds)
    for failure in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
