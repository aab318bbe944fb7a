"""Command line interface.

Four subcommands: `gen` writes a weight stream, `solve` runs one of the
streaming solvers and prints a JSON result object, `oracle` prints the exact
optimum, `bench` runs a config of generator/solver rows and writes CSV.

Streams are whitespace-separated non-negative integers; `solve` and `oracle`
read them from --input, unbuffered, or from stdin. `solve` hands the solver
the parser's chunks (`core.WeightChunks`) and never materializes the file;
with --input it holds no reader buffer either, only the parser's block.

`main` reuses one argparse tree per process (`build_parser` is cached), so
only a process's first call builds it; each subcommand carries its handler
as the `handler` default. A call that names a subcommand first is parsed
once, by that subcommand's parser, and what it leaves is reported by the
top parser, as the whole tree's `parse_args` reports it; any other argv
(none, `-h`, an unknown name) goes to the top parser. JSON is written
field by field (`_print_json`), with each int through `int_text`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from dataclasses import fields

from .bench import load_config, run_bench, write_csv
from .core import WeightChunks, format_weights, int_text, iter_weights, parse_int
from .feasibility import MODES, PART_MODE, PARTB_MODE, checked_args
from .generators import GENERATORS, GeneratorSpec
from .oracle import _binsearch_optimum, _dp_optimum
from .schedulers import (
    KNOWN_MAX_LENGTH_TAG,
    KNOWN_MAX_TAG,
    KNOWN_TOTAL_TAG,
    SOLVERS,
    UNKNOWN_TAG,
    KnowledgeProfile,
    solve_tagged,
)

# --know choice -> the solver tag it selects
KNOW_TAGS = {"none": UNKNOWN_TAG, "m": KNOWN_MAX_TAG, "mn": KNOWN_MAX_LENGTH_TAG,
             "s": KNOWN_TOTAL_TAG}
# name a tag requires (see schedulers.SOLVERS) -> the `solve` flag that supplies it
ARG_FLAGS = {"epsilon": "epsilon", "max_weight": "m", "length": "n", "total_weight": "s"}
# --method choice -> the core of the exact oracle it runs (see oracle.py)
ORACLES = {"binsearch": _binsearch_optimum, "dp": _dp_optimum}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the four subcommands, built once per process and
    shared by every later call (and `main`); do not mutate the returned
    parser. It holds no per-call state: parsing only reads it, its defaults
    are immutable, and help text is formatted when printed, so it follows
    `COLUMNS` at that time."""
    parser = argparse.ArgumentParser(
        prog="streampart",
        description="One-pass partitioning of integer weight streams into "
        "p contiguous blocks with a small maximum block weight.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> subcommand parser, for `main`
    parser.commands = sub.choices

    gen = sub.add_parser("gen", help="generate a weight stream")
    gen.add_argument("--kind", required=True, choices=list(GENERATORS))
    gen.add_argument("--n", type=parse_int, help="stream length")
    gen.add_argument("--m", type=parse_int, help="maximum weight")
    gen.add_argument("--t", type=parse_int, help="pair count (yz)")
    gen.add_argument("--i", type=parse_int, dest="i",
                     help="second-half index (yz) or query index (index)")
    gen.add_argument("--bits", type=str, help="bit string for the index kind")
    gen.add_argument("--seed", type=parse_int, default=0)
    gen.add_argument("--out", type=str, help="output path (default stdout)")
    gen.set_defaults(handler=cmd_gen)

    solve = sub.add_parser("solve", help="solve a stream with a one-pass algorithm")
    solve.add_argument("--p", type=parse_int, required=True, help="number of blocks")
    solve.add_argument("--mode", choices=MODES, default=PART_MODE)
    solve.add_argument("--know", choices=list(KNOW_TAGS), default="none")
    solve.add_argument("--epsilon", type=str, help="accuracy parameter, e.g. 1/64")
    solve.add_argument("--m", type=parse_int, help="declared maximum weight")
    solve.add_argument("--n", type=parse_int, help="declared length")
    solve.add_argument("--s", type=parse_int, help="declared total weight")
    solve.add_argument("--input", type=str, help="input path (default stdin)")
    solve.set_defaults(handler=cmd_solve)

    oracle = sub.add_parser("oracle", help="compute the exact optimum offline")
    oracle.add_argument("--p", type=parse_int, required=True)
    oracle.add_argument("--method", choices=list(ORACLES), default="binsearch",
                        help="binsearch: greedy probes inside the sandwich interval; "
                        "dp: the prefix recurrence, which does not probe")
    oracle.add_argument("--input", type=str, help="input path (default stdin)")
    oracle.set_defaults(handler=cmd_oracle)

    bench = sub.add_parser("bench", help="run a benchmark config, write CSV")
    bench.add_argument("--config", type=str, required=True, help="JSON row list")
    bench.add_argument("--out", type=str, help="CSV path (default stdout)")
    bench.set_defaults(handler=cmd_bench)

    return parser


class UsageError(Exception):
    """Usage problem detected after argparse; exits with status 2."""


def _open_input(path: str | None):
    """The --input file, opened raw: an unbuffered binary `io.FileIO`, so
    that each block the parser reads goes from the file into its bytes
    and no reader buffer is alive beside it (the parser reads bytes as
    ASCII text, and a short read only moves where a block ends); or stdin
    as text, which `with` leaves open, when no path is given."""
    return open(path, "rb", buffering=0) if path else nullcontext(sys.stdin)


def _json_text(value) -> str:
    """What `json.dumps(payload, indent=2)` writes for `value`, a field of a
    flat payload: a scalar, or a list of ints or of other scalars; each int
    is written with `int_text`, exactly, also past CPython's digit limit for
    `str`."""
    if type(value) is int:
        return int_text(value)
    if type(value) is list:
        if not value:
            return "[]"
        items = map(int_text if type(value[0]) is int else json.dumps, value)
        return "[\n    " + ",\n    ".join(items) + "\n  ]"
    return json.dumps(value)


def _print_json(payload: dict) -> None:
    """Print a flat, non-empty `payload` as `json.dumps(payload, indent=2)`
    writes it, each value once, through `_json_text`; its keys are
    identifiers, which JSON writes as they are, in quotes."""
    lines = ",\n".join(f'  "{key}": {_json_text(value)}' for key, value in payload.items())
    sys.stdout.write("{\n" + lines + "\n}\n")


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(**{field.name: getattr(args, field.name)
                            for field in fields(GeneratorSpec)})
    weights = spec.make()
    text = format_weights(weights) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    tag = KNOW_TAGS[args.know]
    names = SOLVERS[tag]
    flags = [ARG_FLAGS[name] for name in names]
    missing = ["--" + flag for flag in flags if getattr(args, flag) is None]
    if missing:
        raise UsageError(f"--know {args.know} requires {', '.join(missing)}")
    profile = KnowledgeProfile(max_weight=args.m, length=args.n, total_weight=args.s)
    with _open_input(args.input) as reader:
        result = solve_tagged(tag, WeightChunks(reader), args.p, args.epsilon, profile,
                              mode=args.mode)
    _print_json(result.to_json_dict())
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    with _open_input(args.input) as reader:
        weights = list(iter_weights(reader))
    # the parser's weights are checked: the oracle's core takes their max
    checked_args(args.p, PARTB_MODE)
    answer = ORACLES[args.method](weights, max(weights, default=0), args.p)
    _print_json({"optimum": answer.optimum, "method": answer.method,
                 "n": len(weights), "p": args.p})
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fp:
        rows = load_config(fp)
    records = run_bench(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            write_csv(records, fp)
    else:
        write_csv(records, sys.stdout)
    failed = [r for r in records if r.error]
    if failed:
        sys.stderr.write(f"streampart bench: {len(failed)} of {len(records)} rows failed\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no subcommand: help, usage or an unknown name
        args = parser.parse_args(argv)
    else:
        # what the top parser does with it: the rest, parsed once by the
        # subcommand's parser, and what it leaves reported by the top parser
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"streampart: {exc}\n")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"streampart: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
