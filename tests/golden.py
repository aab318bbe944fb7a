"""The golden corpora. The CLI corpus: seeded input streams, the commands
run on each, and how a run is recorded (stdout's SHA-256, stderr's full
text, the exit code). The library corpus: the unknown-knowledge and grid
solves of seeded weight mixes, each recorded as the SHA-256 of its result.

`test_golden.py` runs every CLI case through `cli.main` in-process and
compares it with `golden.json`, and every library case with
`golden_library.json`. A change that alters output on purpose rewrites the
digests with

    PYTHONPATH=src python tests/golden.py

and says why in `CHANGES.md`. This module is no test file, so pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from helpers import MIXES, mixed_stream
from streampart import (solve_known_max, solve_known_max_length, solve_known_total,
                        solve_unknown_part, solve_unknown_partb)
from streampart.cli import main
from streampart.core import WeightChunks, int_text, parse_int
from streampart.feasibility import MODES

GOLDEN_PATH = Path(__file__).with_name("golden.json")
LIBRARY_PATH = Path(__file__).with_name("golden_library.json")

# stdin is a text reader over the stream's bytes, as a terminal or pipe gives
STDIN_ENCODING = "utf-8"


def _uniform(top: int, seed: int, count: int = 5000) -> list[int]:
    return random.Random(seed).choices(range(top + 1), k=count)


def _digits(count: int, seed: int) -> str:
    """`count` decimal digits, the first of them not 0."""
    rng = random.Random(seed)
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=count - 1))


def _text(tokens) -> bytes:
    return (" ".join(map(str, tokens)) + "\n").encode("ascii")


def _stream(data: bytes, top: str | None = None) -> tuple[bytes, dict[str, str]]:
    """`data` and what `solve` declares of it, written out: the largest
    weight (`top` when given), the length and the total of its tokens that
    are decimal integers, read as utf-8 text."""
    weights = [parse_int(token) for token in data.decode(STDIN_ENCODING, "replace").split()
               if token.isascii() and token.isdigit()]
    return data, {"m": top or int_text(max(weights)), "n": int_text(len(weights)),
                  "s": int_text(sum(weights))}


def _inputs() -> dict[str, tuple[bytes, dict[str, str]]]:
    """Each input's bytes and its declarations (`_stream`)."""
    inputs = {f"uniform-0..{top}": _stream(_text(_uniform(top, seed)))
              for top, seed in ((1000, 1), (2047, 2), (10**6, 3))}

    rng = random.Random(4)
    padded = [f"{value:0{rng.randint(1, 6)}d}" for value in rng.choices(range(2048), k=3000)]
    inputs["zero-padded"] = _stream(_text(padded))

    small = _uniform(1023, 5, count=400)
    long_tokens = [*small[:50], _digits(5000, 6), *small[50:60], _digits(8191, 7),
                   *small[60:70], _digits(31, 8), *small[70:]]
    inputs["long-tokens"] = _stream(_text(long_tokens))

    # the 256th token is the first outside the parser's table of ints below 1024
    miss = [*_uniform(1023, 9, count=255), 1024, *_uniform(1023, 10, count=800)]
    inputs["miss-at-256"] = _stream(_text(miss))
    long_after_miss = [*_uniform(1023, 11, count=300), 4096, *_uniform(1023, 12, count=20),
                       _digits(5000, 13), *_uniform(1023, 14, count=300)]
    inputs["miss-then-5000-digits"] = _stream(_text(long_after_miss))

    # bad bytes after a few slices of good tokens, and an empty stream
    good = _text(_uniform(1000, 15, count=700))
    inputs["x"] = _stream(good + b"x " + good, "1000")
    inputs["c3"] = _stream(good + b"5 \xc3 7 " + good, "1000")
    inputs["1c"] = _stream(good.replace(b" ", b"\x1c", 40) + good, "1000")
    inputs["empty"] = _stream(b"", "1000")

    # text at the parser's block ends: 8190 characters "1 ", then the two
    # characters that end the first block of 8192 (of bytes through
    # --input, of characters through stdin), then ASCII tokens
    ones, after = "1 " * 4095, " ".join(map(str, _uniform(1000, 16, count=3000))) + "\n"
    # a non-ASCII token runs from the first block into the second
    inputs["carried-non-ascii"] = _stream((ones + "1\u0663" + after).encode())
    # an ASCII token runs on into a block that is not ASCII
    inputs["carried-into-nbsp"] = _stream((ones + "12" + "3\u00a04 " + after).encode())
    # a two-byte character over bytes 8191 and 8192
    inputs["straddle-8192"] = _stream((ones + "7\u00a0" + after).encode())
    inputs["1c-at-block-end"] = _stream((ones + "1\x1c" + after).encode())
    # a first block of whitespace only
    inputs["blank-first-block"] = _stream((" \n\t" * 3000 + after).encode())
    # no-break and ideographic spaces between the tokens: text that stdin
    # reads and --input refuses
    spaces = random.Random(17).choices([" ", "\u00a0", "\u3000", "\n"], k=3000)
    tokens = map(str, _uniform(1000, 18, count=3000))
    inputs["nbsp-u3000"] = _stream("".join(map("".join, zip(tokens, spaces))).encode())
    # a last token that no whitespace ends, in a last block shorter than 8192
    inputs["no-final-newline"] = _stream(_text(_uniform(1000, 19))[:-1])
    return inputs


def _commands(name: str, declared: dict[str, str]) -> dict[str, list[str]]:
    commands = {
        "solve-partb": ["solve", "--p", "8", "--mode", "partb"],
        "solve-part": ["solve", "--p", "8"],
        "solve-know-m": ["solve", "--p", "8", "--know", "m", "--m", declared["m"],
                         "--epsilon", "1/10"],
        "solve-know-mn": ["solve", "--p", "8", "--know", "mn", "--m", declared["m"],
                          "--n", declared["n"], "--epsilon", "1/10"],
        "solve-know-s": ["solve", "--p", "8", "--know", "s", "--s", declared["s"],
                         "--epsilon", "1/10"],
        "oracle": ["oracle", "--p", "8"],
        "oracle-dp": ["oracle", "--p", "8", "--method", "dp"],
    }
    if name.startswith("uniform-"):
        # false declarations: a total or a length one too high, a maximum one too low
        def off(key: str, by: int) -> str:
            return int_text(parse_int(declared[key]) + by)

        commands["solve-know-s-lie"] = ["solve", "--p", "8", "--know", "s", "--s", off("s", 1),
                                        "--epsilon", "1/10"]
        commands["solve-know-mn-lie"] = ["solve", "--p", "8", "--know", "mn", "--m", declared["m"],
                                         "--n", off("n", 1), "--epsilon", "1/10"]
        commands["solve-know-m-lie"] = ["solve", "--p", "8", "--know", "m", "--m", off("m", -1),
                                        "--epsilon", "1/10"]
    return commands


def _run(argv: list[str], stdin: io.TextIOBase) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, stdin
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def record(directory: Path) -> dict[str, dict]:
    """Every case's record, keyed "input/source/command": each command runs
    on each input through `--input` (a file written in `directory`) and
    through stdin."""
    records = {}
    for name, (data, declared) in _inputs().items():
        path = directory / f"{name}.txt"
        path.write_bytes(data)
        for command, argv in _commands(name, declared).items():
            records[f"{name}/input/{command}"] = _run(argv + ["--input", str(path)], sys.stdin)
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding=STDIN_ENCODING)
            records[f"{name}/stdin/{command}"] = _run(argv, stdin)
    return records


def _digest(result) -> str:
    """The SHA-256 of a solve's JSON fields, its instance count and its
    buffer words. An int past CPython's digit limit for `str` (a fine
    grid's exact bottleneck) is written in full: the limit is lifted while
    the JSON is written, which leaves the text of smaller ints as it was."""
    fields = {"result": result.to_json_dict(), "instance_count": result.instance_count,
              "buffer_words": result.buffer_words}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(fields, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(limit)
    return hashlib.sha256(text.encode()).hexdigest()


# each grid solver and what it declares of a stream
GRID_SOLVERS = (
    (solve_known_total, lambda weights: (sum(weights),)),
    (solve_known_max_length, lambda weights: (max(weights), len(weights))),
    (solve_known_max, lambda weights: (max(weights),)),
)
# the grid solves' (epsilon, p) per stream length: p = 3 and 64 at 1/100,
# and p = 64 at 1/1000 on the long streams
GRID_SHAPES = {
    3000: ((Fraction(1, 100), 3), (Fraction(1, 100), 64)),
    20000: ((Fraction(1, 100), 3), (Fraction(1, 100), 64), (Fraction(1, 1000), 64)),
}


def record_library() -> dict[str, str]:
    """Every library case's digest. Keyed "solver/mix/p/n/reading": both
    unknown-knowledge solvers on each mix's seeded stream of n weights, read
    as checked chunks and as a plain iterator. Keyed
    "solver/mix/p/n/epsilon/mode": each grid solver, given true
    declarations, on the same streams read as checked chunks, in both
    modes; and known-m on a stream of ones whose optimum passes every
    probe's bound, so that an escalator answers."""
    records = {}
    for mix in MIXES:
        for length in (3000, 20000):
            weights = mixed_stream(length + MIXES.index(mix), length, mix)
            for num_blocks in (3, 8, 64):
                for solver in (solve_unknown_part, solve_unknown_partb):
                    key = f"{solver.__name__}/{mix}/{num_blocks}/{length}"
                    records[f"{key}/of_checked"] = _digest(
                        solver(WeightChunks.of_checked(weights), num_blocks))
                    records[f"{key}/iter"] = _digest(solver(iter(weights), num_blocks))
            for epsilon, num_blocks in GRID_SHAPES[length]:
                for solver, declare in GRID_SOLVERS:
                    for mode in MODES:
                        key = f"{solver.__name__}/{mix}/{num_blocks}/{length}/{epsilon}/{mode}"
                        records[key] = _digest(solver(WeightChunks.of_checked(weights), num_blocks,
                                                      epsilon, *declare(weights), mode=mode))
    # at p = 2 and eps = 1/100 the top probe bound is below 2**15 * 1.01,
    # and the optimum of 80000 ones is 40000
    ones = [1] * 80000
    for mode in MODES:
        records[f"solve_known_max/ones/2/80000/1/100/{mode}"] = _digest(
            solve_known_max(WeightChunks.of_checked(ones), 2, Fraction(1, 100), 1, mode=mode))
    return records


def _write(path: Path, corpus: dict) -> None:
    path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {path}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        _write(GOLDEN_PATH, record(Path(scratch)))
    _write(LIBRARY_PATH, record_library())
