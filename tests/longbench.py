"""Long grid races, measured beside perfbench: this tree against a parent
revision, on solves that perfbench's four workloads do not run.

    PYTHONPATH=src python tests/longbench.py --parent <rev> --rounds 6 --out LONG.json

Each row is one solve of `random.Random(7).choices(range(1001), k=n)` at
p = 64 in part mode, by a grid race or, in the `unknown-2approx` row, by
the unknown-knowledge walk. Most rows are library solves, read as
`WeightChunks.of_checked` or, in a row read as text, parsed by
`WeightChunks(io.BytesIO(text))` from the weights joined by spaces with no
final newline. A `cli` row is a whole `streampart solve` call, `cli.main`
with `--input` on a file of the weights, argument parsing and JSON
included; the cached parser tree is built before the timing, as a
process's later calls find it. The parent
is exported with `git archive` into a temporary directory. Every run is a
fresh process whose `PYTHONPATH` is one side's `src/`; in each round every
row runs once a side, the parent first in even rounds and this tree first
in odd ones, since the host's speed drifts between rounds. A timed run
records the CPU time (`time.process_time`) of the solve alone and the
SHA-256 of the JSON that `streampart solve` prints, or would print, for it.
Two untimed runs a side give tracemalloc's peak over the solve, and the
number of `_Walker.walk`, `_Race._build`, `_growth` and
`UnknownPartSolver._regroup` calls, of searches (`bisect_left` and
`bisect_right` calls in `schedulers`), and of `Fraction`s built during the
solve, counted by wrapping.

The output holds, per row and side, the median and quartiles of the CPU
times (`statistics.quantiles(n=4, method='inclusive')`) and every run, the
peak, the counts and the digest. The exit status is 1 when a row's digests
differ between the sides, unless `--expect-change` is given. This module is
no test file, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
NUM_BLOCKS = 64
# how a row reads its stream
SOURCES = {
    "checked": "WeightChunks.of_checked(weights)",
    "text": "WeightChunks(io.BytesIO(text)), text the weights joined by spaces as ASCII "
            "bytes with no final newline",
    "cli": "cli.main(['solve', '--p', '64', '--know', <the tag's>, <its declarations>, "
           "'--input', path]), the file the weights joined by spaces with a final newline",
}
# (solver tag, n, eps or None, source)
ROWS = [
    ("known-mn", 10**6, "1/1000", "checked"),
    ("known-S", 10**6, "1/1000", "checked"),
    ("known-m", 10**5, "1/1000", "checked"),
    ("known-mn", 10**5, "1/3000", "checked"),
    ("known-mn", 10**5, "1/100", "checked"),
    ("known-m", 2000, "1/100", "text"),
    ("known-m", 2000, "1/100", "cli"),
    ("unknown-2approx", 10**6, None, "checked"),
]


def row_name(tag: str, n: int, epsilon: str | None, source: str) -> str:
    return (f"{tag} n={n}" + ("" if epsilon is None else f" eps={epsilon}")
            + ("" if source == "checked" else f" {source}"))


def child(tag: str, n: int, epsilon: str | None, source: str, measure: str) -> dict:
    """One solve of the row in this process, with the `streampart` on
    `PYTHONPATH`: its digest and what `measure` asks for."""
    from streampart import cli, feasibility, schedulers
    from streampart.core import WeightChunks
    from streampart.schedulers import KnowledgeProfile, UnknownPartSolver, solve_tagged

    weights = random.Random(7).choices(range(1001), k=n)
    profile = KnowledgeProfile(max_weight=max(weights), length=n, total_weight=sum(weights))
    exact = epsilon and Fraction(epsilon)
    counts = {}
    if measure == "counts":
        for name, owner, attr in (("walk", feasibility._Walker, "walk"),
                                  ("build", schedulers._Race, "_build"),
                                  ("growth", schedulers, "_growth"),
                                  ("regroup", UnknownPartSolver, "_regroup"),
                                  ("search", schedulers, "bisect_left"),
                                  ("search", schedulers, "bisect_right")):
            counts[name] = 0
            setattr(owner, attr, counted(getattr(owner, attr), counts, name))
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        if source == "cli":
            path = Path(scratch) / "weights.txt"
            path.write_text(" ".join(map(str, weights)) + "\n", encoding="ascii")
            values = {"epsilon": epsilon, "max_weight": profile.max_weight,
                      "length": profile.length, "total_weight": profile.total_weight}
            know = next(know for know, known in cli.KNOW_TAGS.items() if known == tag)
            argv = ["solve", "--p", str(NUM_BLOCKS), "--know", know, "--input", str(path)]
            for name in schedulers.SOLVERS[tag]:
                argv += ["--" + cli.ARG_FLAGS[name], str(values[name])]
            cli.build_parser()

            def solve():
                with redirect_stdout(printed):
                    return cli.main(argv)
        else:
            if source == "text":
                stream = WeightChunks(io.BytesIO(" ".join(map(str, weights)).encode("ascii")))
            else:
                stream = WeightChunks.of_checked(weights)

            def solve():
                return solve_tagged(tag, stream, NUM_BLOCKS, exact, profile)
        if measure == "peak":
            tracemalloc.start()
        elif measure == "counts":
            # the Fractions of the call alone (a library row's epsilon is built above)
            new = vars(Fraction)["__new__"]
            counts["fraction"] = 0
            Fraction.__new__ = counted(Fraction.__new__, counts, "fraction")
        start = time.process_time()
        result = solve()
        cpu = time.process_time() - start
        out = {}
        if measure == "peak":
            out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        elif measure == "time":
            out["cpu_s"] = cpu
        else:
            Fraction.__new__ = new
            out["counts"] = counts
    if source == "cli":
        assert result == 0, printed.getvalue()
    else:
        with redirect_stdout(printed):
            cli._print_json(result.to_json_dict())
    out["sha256"] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    return out


def counted(function, counts: dict, name: str):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return wrapper


def run_side(src: Path, row: tuple, measure: str) -> dict:
    """A fresh process that runs `child` on `src`'s `streampart`."""
    tag, n, epsilon, source = row
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--child", tag, str(n), str(epsilon),
                           source, measure], env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def export(rev: str, into: Path) -> Path:
    """`rev`'s `src/`, exported with `git archive` under `into`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare with")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--expect-change", action="store_true",
                        help="do not fail when a row's digests differ")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")
    parent = subprocess.run(["git", "-C", str(REPO), "rev-parse", args.parent], check=True,
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as scratch:
        sides = {"parent": export(parent, Path(scratch)), "change": REPO / "src"}
        records = {row: {side: {"times": [], "digests": set()} for side in sides}
                   for row in ROWS}
        for round_ in range(args.rounds):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for row in ROWS:
                for side in order:
                    run = run_side(sides[side], row, "time")
                    records[row][side]["times"].append(run["cpu_s"])
                    records[row][side]["digests"].add(run["sha256"])
                    print(f"round {round_ + 1} {row_name(*row)} {side}: {run['cpu_s']:.3f} s",
                          file=sys.stderr)
        for row in ROWS:
            for side, src in sides.items():
                for measure in ("peak", "counts"):
                    run = run_side(src, row, measure)
                    records[row][side]["digests"].add(run.pop("sha256"))
                    records[row][side].update(run)
    mismatched = []
    rows = {}
    for row, record in records.items():
        digests = {side: sorted(record[side].pop("digests")) for side in sides}
        same = digests["parent"] == digests["change"] and len(digests["change"]) == 1
        if not same:
            mismatched.append(row_name(*row))
        parent_times, change_times = record["parent"]["times"], record["change"]["times"]
        rows[row_name(*row)] = {
            "tag": row[0], "n": row[1], "epsilon": row[2], "p": NUM_BLOCKS,
            "stream": SOURCES[row[3]],
            **{side: {"cpu_s": summary(record[side].pop("times")),
                      "sha256": digests[side], **record[side]} for side in sides},
            "change_over_parent": (statistics.median(change_times)
                                   / statistics.median(parent_times)),
            "change_faster_rounds": sum(map(float.__lt__, change_times, parent_times)),
            "digests_equal": same,
        }
    head = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    report = {
        "command": "PYTHONPATH=src python tests/longbench.py " + " ".join(
            argv if argv is not None else sys.argv[1:]),
        "parent_commit": parent,
        "change": f"the working tree over {head}",
        "rounds": args.rounds,
        "stream": "weights = random.Random(7).choices(range(1001), k=n), part mode, "
                  "read as each row's stream says",
        "protocol": "one fresh process per run and side; each round runs every row once a "
                    "side, the parent first in even rounds (counted from 0); cpu_s is "
                    "time.process_time of the solve alone; peak_bytes is tracemalloc's peak "
                    "over the solve in a separate untimed run, and counts another untimed "
                    "run's calls; change_faster_rounds counts the rounds in which the change's "
                    "run took less CPU than the parent's",
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if mismatched and not args.expect_change:
        print(f"digests differ: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        tag, n, epsilon, source, measure = sys.argv[2:]
        print(json.dumps(child(tag, int(n), None if epsilon == "None" else epsilon, source,
                               measure)))
    else:
        sys.exit(main())
