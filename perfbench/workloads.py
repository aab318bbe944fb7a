"""The four workloads: how each op's input is made from its seed, how the op
runs through streampart's public entry points, and how its traced
decomposition times each layer.

Every op gets a fresh input from its own seed; the program only ever sees the
generated text (CLI workloads) or config rows (the sweep).
"""

from __future__ import annotations

import io
import json
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

from streampart import cli
from streampart.bench import run_bench
from streampart.core import iter_weights
from streampart.feasibility import probe_run
from streampart.generators import GeneratorSpec
from streampart.oracle import opt_bottleneck_binsearch
from streampart.probe_ext import probe_ext_run
from streampart.schedulers import (
    solve_known_max,
    solve_known_max_length,
    solve_known_total,
    solve_unknown_part,
    solve_unknown_partb,
)

from .checks import Case, canonical
from .spans import Stamps, Tracer, stamped

TAGS = ("known-S", "known-mn", "known-m", "unknown-2approx")
KNOW_FLAG = {"known-S": "s", "known-mn": "mn", "known-m": "m", "unknown-2approx": "none"}
MAX_WEIGHT = 1000


def uniform_stream(seed: int, length: int, max_weight: int) -> list[int]:
    """Independent uniform draws from 0..max_weight, made by the harness."""
    return random.Random(seed).choices(range(max_weight + 1), k=length)


def write_stream(path: Path, weights) -> None:
    path.write_text(" ".join(map(str, weights)) + "\n", encoding="ascii")


def solve_argv(tag: str, mode: str, num_blocks: int, epsilon, weights, path) -> list[str]:
    """`streampart solve` arguments, declaring only values read off the stream."""
    argv = ["solve", "--know", KNOW_FLAG[tag], "--p", str(num_blocks), "--mode", mode]
    if epsilon is not None:
        argv += ["--epsilon", str(epsilon)]
    if tag == "known-S":
        argv += ["--s", str(sum(weights))]
    if tag in ("known-mn", "known-m"):
        argv += ["--m", str(max(weights))]
    if tag == "known-mn":
        argv += ["--n", str(len(weights))]
    return argv + ["--input", str(path)]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def solve_direct(case: Case, weights, stream):
    """The solver `streampart solve` routes `case` to, called in-process."""
    tag, p, eps, mode = case.tag, case.num_blocks, case.epsilon, case.mode
    if tag == "known-S":
        return solve_known_total(stream, p, eps, case.prefix[-1], mode=mode)
    if tag == "known-mn":
        return solve_known_max_length(stream, p, eps, max(weights), len(weights), mode=mode)
    if tag == "known-m":
        return solve_known_max(stream, p, eps, max(weights), mode=mode)
    if mode == "part":
        return solve_unknown_part(stream, p)
    return solve_unknown_partb(stream, p)


@dataclass
class Solved:
    """One solve inside an op, ready for the checker."""

    case: Case
    payload: dict | None
    claimed_optimum: int | None = None
    error: str | None = None


@dataclass
class Op:
    key: str  # the op seed, or "setup"; keys the exactness reference
    elements: int
    streams: list[list[int]]
    argv: list[str] | None = None
    rows: list[dict] | None = None
    cases: list[Case] = field(default_factory=list)


@dataclass
class Layers:
    """Per-layer totals of one traced op (summed over the rows of a sweep)."""

    parse_s: float = 0.0
    setup_s: float = 0.0
    pass_s: float = 0.0
    finish_s: float = 0.0
    probe_s: float = 0.0
    probe_ext_s: float = 0.0
    probe_ext_merges: int = 0
    oracle_s: float = 0.0
    make_s: float = 0.0
    cli_s: float = 0.0
    elements: int = 0
    instance_count: int = 0
    space_peak_words: int = 0
    elements_read: int = 0
    instance_elements: int = 0
    op_s: float = 0.0
    solved: list[Solved] = field(default_factory=list)


def trace_solve(tracer: Tracer, op_id: int, parent: int, case: Case, path: Path,
                layers: Layers):
    """Solve the stream in `path` layer by layer, as child spans of `parent`:
    parse, grid setup, the pass, finish and JSON. Returns the result and its
    JSON text as the CLI prints it."""
    with tracer.span("core.iter_weights", op_id, parent) as index:
        with open(path, encoding="ascii") as fp:
            parsed = list(iter_weights(fp))
    layers.parse_s += tracer.spans[index].seconds
    stamps = Stamps()
    called = perf_counter()
    result = solve_direct(case, parsed, stamped(parsed, stamps))
    returned = perf_counter()
    first = stamps.first if stamps.first is not None else called
    last = stamps.last if stamps.last is not None else returned
    for name, start, end in (("schedulers.setup", called, first),
                             ("schedulers.pass", first, last),
                             ("schedulers.finish", last, returned)):
        tracer.add(name, op_id, start, end, parent)
    layers.setup_s += first - called
    layers.pass_s += last - first
    layers.finish_s += returned - last
    with tracer.span("cli.emit", op_id, parent):
        text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    return result, text


def trace_probes(tracer: Tracer, op_id: int, case: Case, weights, spec: GeneratorSpec,
                 path: Path, result, layers: Layers) -> None:
    """Time one public call per remaining layer, as top-level spans of the op."""
    with tracer.span("feasibility.probe_run", op_id) as index:
        probe_run(iter(weights), result.bottleneck, case.num_blocks)
    layers.probe_s += tracer.spans[index].seconds
    with tracer.span("probe_ext.probe_ext_run", op_id) as index:
        ext = probe_ext_run(iter(weights), max(weights), case.num_blocks, 0)
    layers.probe_ext_s += tracer.spans[index].seconds
    layers.probe_ext_merges += ext.merges
    with tracer.span("oracle.opt_bottleneck_binsearch", op_id) as index:
        optimum = opt_bottleneck_binsearch(weights, case.num_blocks).optimum
    layers.oracle_s += tracer.spans[index].seconds
    with tracer.span("generators.make", op_id) as index:
        spec.make()
    layers.make_s += tracer.spans[index].seconds
    argv = solve_argv(case.tag, case.mode, case.num_blocks, case.epsilon, weights, path)
    with tracer.span("cli.overhead", op_id) as index:
        cli.build_parser().parse_args(argv)
        json.dumps(result.to_json_dict(), indent=2)
    layers.cli_s += tracer.spans[index].seconds

    layers.elements += len(weights)
    layers.instance_count += result.instance_count
    layers.space_peak_words += result.space_peak_words
    layers.elements_read += result.elements_read
    layers.instance_elements += result.instance_count * result.elements_read
    layers.solved.append(Solved(case, result.to_json_dict(), claimed_optimum=optimum))


def solve_peak_bytes(case: Case, weights) -> int:
    """tracemalloc peak of the solve call alone."""
    tracemalloc.start()
    try:
        solve_direct(case, weights, iter(weights))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@dataclass(frozen=True)
class CliWorkload:
    """`streampart solve` on one uniform stream per op, through `cli.main`."""

    name: str
    tag: str
    mode: str
    length: int
    num_blocks: int = 64
    epsilon: str | None = None
    min_ops: int = 5
    # the Calibrator job closest to the op's dominant work
    calibration: str = "parse"
    # tracing allocations of the full op costs ~16x its time; affordable here
    memory_on_setup: bool = False

    def _op(self, key: str, weights: list[int], workdir: Path) -> Op:
        path = workdir / f"{self.name}-input.txt"
        write_stream(path, weights)
        argv = solve_argv(self.tag, self.mode, self.num_blocks, self.epsilon, weights, path)
        case = Case.of(weights, self.num_blocks, self.tag, self.mode, self.epsilon)
        return Op(key, len(weights), [weights], argv=argv, cases=[case])

    def prepare(self, seed: int, workdir: Path) -> Op:
        return self._op(str(seed), uniform_stream(seed, self.length, MAX_WEIGHT), workdir)

    def prepare_setup(self, workdir: Path) -> Op:
        """The same op on a one-element stream that holds the declared maximum."""
        return self._op("setup", [MAX_WEIGHT], workdir)

    def calls(self, op: Op) -> list:
        """The op as calls the runner times one by one: here, one `cli.main`."""
        return [partial(run_cli, op.argv)]

    def solved(self, op: Op, outcomes: list) -> tuple[list[Solved], str]:
        """Results to check, and the text the exactness reference digests."""
        [(code, text, err)] = outcomes
        if code != 0:
            return [Solved(op.cases[0], None, error=f"exit code {code}: {err.strip()}")], text
        return [Solved(op.cases[0], json.loads(text))], text

    def trace(self, op: Op, tracer: Tracer, op_id: int,
              workdir: Path) -> tuple[Layers, list[Solved], str]:
        layers = Layers()
        spec = GeneratorSpec(kind="uniform", n=self.length, m=MAX_WEIGHT, seed=int(op.key))
        path = Path(op.argv[-1])
        with tracer.span("op", op_id) as root:
            result, text = trace_solve(tracer, op_id, root, op.cases[0], path, layers)
        layers.op_s = tracer.spans[root].seconds
        trace_probes(tracer, op_id, op.cases[0], op.streams[0], spec, path, result, layers)
        return layers, layers.solved, text

    def alloc_peak(self, op: Op) -> int:
        return solve_peak_bytes(op.cases[0], op.streams[0])


def sweep_rows(seed: int) -> list[dict]:
    """The fixed paper-reproduction config; only generator seeds and the hard
    instances' hidden choices come from `seed`."""
    rng = random.Random(seed)
    rows = []
    for tag in TAGS:
        epsilons = [None] if tag == "unknown-2approx" else ["1/10", "1/100"]
        for kind in ("uniform", "spike"):
            for num_blocks in (4, 64):
                for mode in ("part", "partb"):
                    for eps in epsilons:
                        rows.append({"generator": {"kind": kind, "n": 400, "m": MAX_WEIGHT,
                                                   "seed": rng.randrange(1 << 30)},
                                     "algorithm": tag, "mode": mode, "p": num_blocks,
                                     "epsilon": eps})
    for tag in TAGS:
        eps = None if tag == "unknown-2approx" else "1/100"
        yz = {"kind": "yz", "n": 400, "t": 50, "i": rng.randint(1, 50),
              "seed": rng.randrange(1 << 30)}
        bits = "".join(rng.choice("01") for _ in range(150))
        index = {"kind": "index", "bits": bits, "i": 150}
        for generator in (yz, index):
            rows.append({"generator": generator, "algorithm": tag, "mode": "part", "p": 2,
                         "epsilon": eps})
    big = {"kind": "uniform", "n": 200_000, "m": MAX_WEIGHT}
    rows.append({"generator": dict(big, seed=rng.randrange(1 << 30)),
                 "algorithm": "unknown-2approx", "mode": "partb", "p": 64, "epsilon": None})
    rows.append({"generator": dict(big, seed=rng.randrange(1 << 30)),
                 "algorithm": "known-S", "mode": "partb", "p": 4, "epsilon": "1/10"})
    return rows


@dataclass(frozen=True)
class SweepWorkload:
    """One `bench.run_bench` pass over the fixed sweep config."""

    name: str
    min_ops: int = 2
    calibration: str = "parse"
    # tracing allocations of the full sweep costs ~45 s, so the memory pass
    # uses the one-element variant of the op (every grid, no long stream)
    memory_on_setup: bool = True

    def _op(self, key: str, rows: list[dict]) -> Op:
        streams = [GeneratorSpec(**row["generator"]).make() for row in rows]
        cases = [Case.of(weights, row["p"], row["algorithm"], row["mode"], row["epsilon"])
                 for weights, row in zip(streams, rows)]
        return Op(key, sum(map(len, streams)), streams, rows=rows, cases=cases)

    def prepare(self, seed: int, workdir: Path) -> Op:
        return self._op(str(seed), sweep_rows(seed))

    def prepare_setup(self, workdir: Path) -> Op:
        """The config's rows with generator constant, n=1, m=1000."""
        constant = {"kind": "constant", "n": 1, "m": MAX_WEIGHT}
        return self._op("setup", [dict(row, generator=constant) for row in sweep_rows(0)])

    def calls(self, op: Op) -> list:
        """One `run_bench` call per row, so that the runner can calibrate the
        host between rows; run_bench keeps no state from one row to the next."""
        return [partial(run_bench, [row]) for row in op.rows]

    def solved(self, op: Op, outcomes: list) -> tuple[list[Solved], str]:
        records = [record for batch in outcomes for record in batch]
        if len(records) != len(op.rows):
            return [Solved(op.cases[0], None, error=f"{len(records)} records for "
                                                    f"{len(op.rows)} rows")], ""
        solved, exact = [], []
        for case, row, record in zip(op.cases, op.rows, records):
            payload = None if record.result is None else record.result.to_json_dict()
            solved.append(Solved(case, payload, record.oracle_optimum, record.error))
            exact.append({"row": row, "result": payload, "oracle": record.oracle_optimum,
                          "error": record.error})
        return solved, canonical(exact)

    def trace(self, op: Op, tracer: Tracer, op_id: int,
              workdir: Path) -> tuple[Layers, list[Solved], str]:
        """The op is the timed `run_bench` call; each row is then solved again
        through the layer probes, as top-level spans of the same op."""
        layers = Layers()
        with tracer.span("op", op_id) as root:
            with tracer.span("bench.run_bench", op_id, root):
                records = run_bench(op.rows)
        layers.op_s = tracer.spans[root].seconds
        path = workdir / f"{self.name}-row.txt"
        for case, row, weights in zip(op.cases, op.rows, op.streams):
            write_stream(path, weights)
            with tracer.span("bench.row", op_id) as row_span:
                result, _ = trace_solve(tracer, op_id, row_span, case, path, layers)
            trace_probes(tracer, op_id, case, weights, GeneratorSpec(**row["generator"]), path,
                         result, layers)
        solved, text = self.solved(op, [records])
        return layers, solved + layers.solved, text

    def alloc_peak(self, op: Op) -> int:
        return max(solve_peak_bytes(case, weights)
                   for case, weights in zip(op.cases, op.streams))


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("known-m-grid", "known-m", "part", 2000, epsilon="1/100",
                    calibration="grid"),
        CliWorkload("unknown-part", "unknown-2approx", "part", 10_000),
        CliWorkload("partb-stream", "unknown-2approx", "partb", 100_000),
        SweepWorkload("bench-sweep"),
    )
}
