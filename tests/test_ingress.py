"""Text ingress: the chunk parser (`core.WeightChunks`), from text and from
bytes, against `str.split` and `int`, its conversion ladder (a table of
small ints, then `int`, then `parse_int`) at the edges of its slices, the
size of its chunks, errors in
stream order, the CLI's error texts on bad bytes, numbers past CPython's
digit limit for `int(str)` and `str(int)`, `parse_int` against `int` with no
digit limit, the CLI against the solver called on the list, the trust
`_drive` gives the parser's chunks and no other stream, the caller's list,
which no pass rewrites, the memory the parser holds while a chunk is walked,
while a block is read and converted, and over a whole pass, and the one
machine word a pass holds per prefix sum."""

import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streampart import (
    PART_MODE,
    PARTB_MODE,
    DeclaredBoundError,
    KnowledgeProfile,
    ProbeInstance,
    format_weights,
    iter_weights,
    opt_bottleneck_binsearch,
    parse_weights,
    probe_run,
    solve_known_max,
    solve_known_max_length,
    solve_known_total,
    solve_unknown_part,
    solve_unknown_partb,
)
import streampart.core
from streampart.cli import KNOW_TAGS, build_parser, main
from streampart.core import (READ_BLOCK, SLICE, _SMALL_BYTES, WeightChunks, _read_block, int_text,
                             parse_int)
from streampart.feasibility import B, _drive
from streampart.schedulers import SOLVERS, UnknownPartSolver, _Race, solve_tagged

from helpers import TIER1, counted_checked_max

SETTINGS = settings(TIER1, max_examples=200)


def chunks_of(text: str) -> list[list[int]]:
    return list(WeightChunks(io.StringIO(text)).chunks)


def horner(digits: str) -> int:
    """A decimal string's value, one digit at a time: no digit limit."""
    value = 0
    for digit in digits:
        value = value * 10 + "0123456789".index(digit)
    return value


# digits and the characters `str.split` splits on: runs of whitespace,
# leading zeros, empty text, and the separators \x1c-\x1f, which
# `bytes.split` does not split on
ASCII_TEXT = "0123456789 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# no ASCII: four spaces that `str.split` splits on (no-break, em,
# ideographic and next-line), and "٣", an Arabic-Indic digit, which
# `str.isdigit` accepts but no token may hold
NON_ASCII = "\u00a0\u2003\u3000\x85\u0663"
text_strategy = st.one_of(
    st.text(ASCII_TEXT + NON_ASCII, max_size=60),
    # a few characters of either kind, at a block's end where the lead puts
    # them, then ASCII text: the next block is ASCII
    st.builds(str.__add__, st.text(ASCII_TEXT + NON_ASCII, min_size=1, max_size=3),
              st.text(ASCII_TEXT, max_size=60)),
)
# filler characters in front: none, or enough to put the text across the
# end of the first or second block, so that its tokens straddle a boundary
# or end exactly on one
lead_strategy = st.one_of(st.just(0), st.integers(READ_BLOCK - 16, READ_BLOCK + 4),
                          st.integers(2 * READ_BLOCK - 16, 2 * READ_BLOCK + 4))


def parsed(reader) -> tuple[list[list[int]], str | None]:
    """The parser's chunks of `reader` up to its first bad token, and the
    message that token raises, or None."""
    chunks = []
    try:
        for chunk in WeightChunks(reader).chunks:
            chunks.append(chunk)
    except ValueError as exc:
        return chunks, str(exc)
    return chunks, None


@SETTINGS
@given(body=text_strategy, lead=lead_strategy)
# a block that ends inside a token that is not ASCII, then an ASCII block:
# the two are joined before the ASCII test
@example(body="\u06632 3 4", lead=READ_BLOCK - 1)
@example(body="\u0663 5", lead=2 * READ_BLOCK - 1)
# a token carried out of the first block, then a block of B tokens: B + 1
# weights from one block
@example(body="1 " * 4095 + "15" + " 7" * 4096, lead=0)
def test_parser_matches_split_and_int(body, lead):
    text = ("3 " * lead)[:lead] + body
    tokens = text.split()
    # `str.split`, each token checked for ASCII digits: the weights before
    # the first bad token, and that token's error
    good = [token.isascii() and token.isdigit() for token in tokens]
    cut = good.index(False) if False in good else len(tokens)
    expected = [int(token) for token in tokens[:cut]]
    error = (f"invalid weight token {tokens[cut]!r}: expected a non-negative integer"
             if cut < len(tokens) else None)
    chunks, raised = parsed(io.StringIO(text))
    assert ([w for chunk in chunks for w in chunk], raised) == (expected, error)
    assert all(0 < len(chunk) <= B for chunk in chunks)
    if error is None:
        assert list(iter_weights(io.StringIO(text))) == expected
        assert parse_weights(text) == expected
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            parse_weights(text)
    if text.isascii():
        # the same text as bytes: the same weights in chunks of the same
        # sizes, and the same error
        assert parsed(io.BytesIO(text.encode("ascii"))) == (chunks, raised)


@pytest.mark.parametrize("text, expected", [
    ("", []),
    (" \n\t ", []),
    ("007 0 00", [7, 0, 0]),
    # the first block ends exactly on a token's last digit
    ("1 " * (READ_BLOCK // 2 - 1) + "23 4", [1] * (READ_BLOCK // 2 - 1) + [23, 4]),
    # "45" ends the first block, "67" opens the next
    ("1 " * (READ_BLOCK // 2 - 1) + "4567", [1] * (READ_BLOCK // 2 - 1) + [4567]),
], ids=["empty", "blank", "leading-zeros", "ends-on-boundary", "straddles-boundary"])
def test_parser_block_edges(text, expected):
    assert [w for chunk in chunks_of(text) for w in chunk] == expected


class WholeText:
    """A reader that returns each of its pieces of text (all str, or all
    bytes) whole, one per `read`, however few characters it is asked for,
    and then empty text."""

    def __init__(self, *pieces: str | bytes) -> None:
        self.pieces = list(pieces)
        self.empty = pieces[0][:0]

    def read(self, size: int) -> str | bytes:
        return self.pieces.pop(0) if self.pieces else self.empty


@pytest.mark.parametrize("text", [
    "1 " * B + "1",
    # a carried token and a block of one-digit tokens: still B tokens
    "1 " * (B - 1) + "12" + " 1" * B,
], ids=["full-block", "carried-token"])
def test_chunks_hold_at_most_b_weights(text):
    # one-digit tokens fill a block of READ_BLOCK characters with B tokens
    assert READ_BLOCK == 2 * B
    chunks = chunks_of(text)
    assert max(map(len, chunks)) == B
    assert [w for chunk in chunks for w in chunk] == [int(t) for t in text.split()]


def test_an_oversized_read_is_cut_into_chunks_of_b():
    text = "1 " * (2 * B) + "5"
    for whole in (text, text.encode("ascii")):
        chunks = list(WeightChunks(WholeText(whole)).chunks)
        assert [len(chunk) for chunk in chunks] == [B, B, 1]
        assert [w for chunk in chunks for w in chunk] == [1] * (2 * B) + [5]


@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_a_short_read_that_ends_inside_a_token_reads_once_more(as_bytes):
    def reader(*pieces: str) -> WholeText:
        return WholeText(*(piece.encode("ascii") if as_bytes else piece for piece in pieces))

    # the read after it is empty: the token is the block's last weight
    assert _read_block(reader("1 2 34"), "") == ([1, 2, 34], None, "", True)
    # it returns text: the token is carried, and that text is the next block's
    after = "5 6\n".encode("ascii") if as_bytes else "5 6\n"
    assert _read_block(reader("1 2 34", "5 6\n"), "") == ([1, 2], None, ("34", after, False),
                                                          False)
    assert list(WeightChunks(reader("1 2 34", "5 6\n", "7")).chunks) == [[1, 2], [345, 6], [7]]
    # a full read that ends inside a token reads one character more: the end
    # of the text, or whitespace, ends the token in the block
    full = "1 " * (READ_BLOCK // 2 - 1) + "23"
    assert list(map(len, WeightChunks(reader(full)).chunks)) == [READ_BLOCK // 2]
    assert list(map(len, WeightChunks(reader(full, "\n")).chunks)) == [READ_BLOCK // 2]


# tokens that are not non-negative decimal integers; "٣" is an
# Arabic-Indic digit, which `str.isdigit` accepts but ASCII does not hold
BAD_TOKENS = ["x", "-3", "1.5", "+2", "0x1", "٣", "1٣"]
MAXIMUM = 1000
# whitespace that `str.split` splits on and `bytes.split` does not
OTHER_SPACES = ["\x1c", "\x1f", "\x85", "\u00a0", "\u2003", "\u3000"]


# a token's index: any, or, as often, one about the end of the first
# block (the text is mostly one-character tokens and spaces, so the token
# at `B - 1` opens the block's last two characters); it is cut to the
# stream's length
index_strategy = st.one_of(st.integers(0, 3 * B), st.integers(B - 3, B + 1), st.just(B - 1))


@SETTINGS
@given(length=st.integers(2, 3 * B), bad_at=index_strategy, big_at=index_strategy,
       bad=st.sampled_from(BAD_TOKENS), space_at=index_strategy,
       space=st.sampled_from(OTHER_SPACES))
# a first block that ends inside a token that is not ASCII, then ASCII text
@example(length=2 * B, bad_at=B - 1, big_at=B + 9, bad="1٣", space_at=3, space="\x1c")
def test_text_errors_follow_stream_order(length, bad_at, big_at, bad, space_at, space):
    bad_at, big_at = min(bad_at, length - 1), min(big_at, length - 1)
    assume(big_at != bad_at)
    tokens = ["7"] * length
    tokens[bad_at] = bad
    tokens[big_at] = str(MAXIMUM + 1)
    # one space that is not `bytes.split` whitespace, after a token
    space_at = min(space_at, length - 2)
    text = " ".join(tokens[:space_at + 1]) + space + " ".join(tokens[space_at + 1:])
    # the parser's chunks, from text and from bytes, and its weights one by
    # one, which `_drive` collects into chunks of its own; a non-ASCII
    # token is no ASCII text, so it is read from text only
    streams = [WeightChunks(io.StringIO(text)), iter_weights(io.StringIO(text))]
    if text.isascii():
        streams.append(WeightChunks(io.BytesIO(text.encode("ascii"))))
    for stream in streams:
        if big_at < bad_at:
            with pytest.raises(DeclaredBoundError, match=f"element {MAXIMUM + 1} exceeds"):
                solve_known_max_length(stream, 2, "1/2", MAXIMUM, length)
        else:
            with pytest.raises(ValueError,
                               match=re.escape(f"invalid weight token {bad!r}")) as raised:
                solve_known_max_length(stream, 2, "1/2", MAXIMUM, length)
            assert not isinstance(raised.value, DeclaredBoundError)


def test_cli_reports_the_first_bad_element(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("5000 1 x"))
    code = main(["solve", "--know", "m", "--m", "1000", "--p", "2", "--epsilon", "1/100"])
    assert code == 1
    assert capsys.readouterr().err == (
        "streampart: element 5000 exceeds declared maximum weight 1000\n")


def corpus(*edits: tuple[int, bytes]) -> bytes:
    """24,000 bytes of "7 ", each (offset, bytes) written over them, then
    the declared maximum 1000: three blocks of the parser and a bit."""
    data = bytearray(b"7 " * 12000)
    for offset, new in edits:
        data[offset:offset + len(new)] = new
    return bytes(data) + b"1000\n"


def decode_error(byte: int, position: int) -> str:
    return (f"streampart: 'ascii' codec can't decode byte {byte:#x} in position {position}: "
            f"ordinal not in range(128)\n")


BAD_TOKEN = "streampart: invalid weight token 'x': expected a non-negative integer\n"
TOO_BIG = "streampart: element 5000 exceeds declared maximum weight 1000\n"

# (edits, stderr of `solve --know m --m 1000`, stderr of `oracle`), the
# texts a text reader of --input gives; None where the command succeeds. A
# decode error names the byte's position in its block of 8192 bytes, and a
# bad byte stops the read of its block before any of the block's weights
# are checked
BAD_BYTES = {
    "c3-at-0": ([(0, b"\xc3")], decode_error(0xc3, 0), decode_error(0xc3, 0)),
    "c3-at-8191": ([(8191, b"\xc3")], decode_error(0xc3, 8191), decode_error(0xc3, 8191)),
    "c3-at-8192": ([(8192, b"\xc3")], decode_error(0xc3, 0), decode_error(0xc3, 0)),
    "c3-at-8193": ([(8193, b"\xc3")], decode_error(0xc3, 1), decode_error(0xc3, 1)),
    "c3-at-16384": ([(16384, b"\xc3")], decode_error(0xc3, 0), decode_error(0xc3, 0)),
    # a token carried from block 1 into block 2 does not move the position
    "c3-after-carried-token": ([(8186, b"123456789"), (8300, b"\xc3")],
                               decode_error(0xc3, 108), decode_error(0xc3, 108)),
    # \x1c separates tokens in text, as a space does
    "1c-in-token": ([(9000, b"12\x1c34")], None, None),
    "a0-in-token": ([(9000, b"12\xa034")], decode_error(0xa0, 810), decode_error(0xa0, 810)),
    "x-token": ([(9000, b"x")], BAD_TOKEN, BAD_TOKEN),
    "big-then-c3": ([(100, b"5000 "), (17000, b"\xc3")], TOO_BIG, decode_error(0xc3, 616)),
    "c3-then-big": ([(100, b"\xc3"), (17000, b"5000 ")], decode_error(0xc3, 100),
                    decode_error(0xc3, 100)),
    "big-then-x": ([(100, b"5000 "), (17000, b"x")], TOO_BIG, BAD_TOKEN),
    "x-then-big": ([(100, b"x"), (17000, b"5000 ")], BAD_TOKEN, BAD_TOKEN),
}


@pytest.mark.parametrize("case", sorted(BAD_BYTES))
def test_cli_error_texts_on_bad_bytes(case, tmp_path, capsys):
    edits, solve_err, oracle_err = BAD_BYTES[case]
    data = corpus(*edits)
    path = tmp_path / "weights.txt"
    path.write_bytes(data)
    solve_argv = ["solve", "--know", "m", "--m", "1000", "--p", "3", "--epsilon", "1/10"]
    for argv, err in ((solve_argv, solve_err), (["oracle", "--p", "3"], oracle_err)):
        code = main(argv + ["--input", str(path)])
        captured = capsys.readouterr()
        if err is not None:
            assert (code, captured.out, captured.err) == (1, "", err)
            continue
        assert (code, captured.err) == (0, "")
        weights = [int(token) for token in data.decode("ascii").split()]
        if argv[0] == "solve":
            expected = solve_known_max(weights, 3, "1/10", 1000).to_json_dict()
        else:
            expected = {"optimum": opt_bottleneck_binsearch(weights, 3).optimum,
                        "method": "binsearch", "n": len(weights), "p": 3}
        assert captured.out == json.dumps(expected, indent=2) + "\n"


LONG = "".join(random.Random(9).choices("0123456789", k=8191))


def test_long_tokens_are_read_exactly():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    # the first long token straddles the end of the first block
    text = "1 " * 10 + LONG + " 9 9 " + "9" * 8191
    expected = [1] * 10 + [horner(LONG), 9, 9, 10**8191 - 1]
    assert list(iter_weights(io.StringIO(text))) == expected
    assert list(iter_weights(io.BytesIO(text.encode("ascii")))) == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cli_solves_a_long_token(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("9" * 8191 + " 5\n", encoding="ascii")
    code = main(["solve", "--know", "none", "--mode", "partb", "--p", "2",
                 "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    expected = solve_unknown_partb([10**8191 - 1, 5], 2).to_json_dict()
    assert json.loads(captured.out, parse_int=horner) == expected


def test_a_long_token_past_the_first_slice_is_read_exactly(tmp_path, capsys):
    # one block: more than SLICE short tokens, then a token past CPython's
    # int() digit limit, then short ones again; the slices before the long
    # one are looked up in the table of small ints, the rest are read by
    # `parse_int`
    rng = random.Random(13)
    tokens = [str(weight) for weight in rng.choices(range(1000), k=SLICE + 40)]
    tokens += ["9" + LONG[:4999], *map(str, rng.choices(range(1000), k=SLICE + 3))]
    text = " ".join(tokens) + "\n"
    assert len(text) < READ_BLOCK
    expected = list(map(parse_int, tokens))
    for reader in (io.StringIO(text), io.BytesIO(text.encode("ascii"))):
        assert list(WeightChunks(reader).chunks) == [expected]
    path = tmp_path / "long.txt"
    path.write_text(text, encoding="ascii")
    assert main(["solve", "--know", "none", "--p", "3", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out, parse_int=horner) == (
        solve_unknown_part(expected, 3).to_json_dict())


def small_tokens(count: int, seed: int) -> list[str]:
    """`count` tokens of the table of small ints, the ints below 1024."""
    return list(map(str, random.Random(seed).choices(range(1024), k=count)))


LIMIT_TOKEN = "9" + LONG[:4999]  # past CPython's int() digit limit


def read_whole_block(tokens: list[str], as_bytes: bool) -> list[int]:
    """The weights `_read_block` reads from one block that holds all of
    `tokens`, however many, as str or as ASCII bytes."""
    text = " ".join(tokens) + "\n"
    reader = WholeText(text.encode("ascii") if as_bytes else text)
    weights, bad, last, at_end = _read_block(reader, "")
    assert (bad, last, at_end) == (None, "", False)
    return weights

# each a block's tokens: where the conversion leaves the table for `int`,
# and `int` for `parse_int`, against the slices `_read_block` splits
LADDER_BLOCKS = {
    "in-table": small_tokens(3 * SLICE + 7, 1),
    "miss-first": ["1024", *small_tokens(SLICE + 20, 2)],
    "miss-at-slice-end": [*small_tokens(SLICE - 1, 3), "4096", *small_tokens(SLICE + 5, 4)],
    "miss-past-first-slice": [*small_tokens(SLICE + 9, 5), "65535", *small_tokens(40, 6)],
    "zero-padded": [*small_tokens(SLICE - 2, 7), "007", "0000", *small_tokens(SLICE, 8)],
    "miss-then-limit": [*small_tokens(10, 9), "1023", "1024", *small_tokens(SLICE + 30, 10),
                        LIMIT_TOKEN, *small_tokens(SLICE + 3, 11)],
    "limit-before-miss": [*small_tokens(3, 12), LIMIT_TOKEN, *small_tokens(SLICE + 3, 13)],
}


# each a block's tokens, against the slices `_read_block` splits: one
# slice's worth, one token fewer or more, two slices' worth, a miss that
# opens the second slice, and a token past the digit limit in the third
SLICE_EDGE_BLOCKS = {
    "slice-less-one": small_tokens(SLICE - 1, 21),
    "one-slice": small_tokens(SLICE, 22),
    "slice-and-one": small_tokens(SLICE + 1, 23),
    "two-slices": small_tokens(2 * SLICE, 24),
    "miss-opens-second-slice": [*small_tokens(SLICE, 25), "1024", *small_tokens(SLICE, 26)],
    "limit-in-third-slice": [*small_tokens(2 * SLICE + 5, 27), LIMIT_TOKEN, *small_tokens(9, 28)],
}


@pytest.mark.parametrize("carried", [False, True], ids=["ends-on-space", "carried"])
@pytest.mark.parametrize("sep", [" ", "\t\n\t\n", " \n\r\x0b\x0c\t"], ids=["space", "tabs", "run"])
@pytest.mark.parametrize("case", sorted(SLICE_EDGE_BLOCKS))
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_slice_edges(as_bytes, case, sep, carried):
    # one block of the case's tokens, each cut at a run of whitespace, then
    # a block "89 7"; when carried, the first block's last token runs on
    # into the second, which ends it
    tokens = SLICE_EDGE_BLOCKS[case]
    pieces = [sep.join(tokens) + ("" if carried else sep), "89 7\n"]
    tokens = [*tokens[:-1], tokens[-1] + "89", "7"] if carried else [*tokens, "89", "7"]
    if as_bytes:
        pieces = [piece.encode("ascii") for piece in pieces]
    expected = list(map(parse_int, tokens))
    assert list(WeightChunks(WholeText(*pieces)).chunks) == [expected[:-2], expected[-2:]]


@pytest.mark.parametrize("as_bytes, bad", [(False, "x"), (False, "-3"), (False, "٣"),
                                           (True, "x"), (True, "-3")])
def test_a_bad_token_in_a_later_slice(as_bytes, bad):
    tokens = [*small_tokens(SLICE + 7, 29), bad, *small_tokens(SLICE, 30)]

    def reader(tokens):
        text = " ".join(tokens) + "\n"
        return io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)

    weights, found, _, _ = _read_block(reader(tokens), "")
    assert (weights, found) == (list(map(parse_int, tokens[:SLICE + 7])), bad)
    # the weights before the bad token are handed on and checked first
    with pytest.raises(ValueError, match=re.escape(f"invalid weight token {bad!r}")):
        solve_known_max(WeightChunks(reader(tokens)), 2, "1/10", 1023)
    too_big = [*tokens[:SLICE + 2], "1024", *tokens[SLICE + 3:]]
    with pytest.raises(DeclaredBoundError, match="^element 1024 exceeds"):
        solve_known_max(WeightChunks(reader(too_big)), 2, "1/10", 1023)


@pytest.mark.parametrize("case", sorted(LADDER_BLOCKS))
def test_the_conversion_ladder_at_slice_edges(case):
    tokens = LADDER_BLOCKS[case]
    text = " ".join(tokens) + "\n"
    assert len(text) < READ_BLOCK
    expected = list(map(parse_int, tokens))
    for reader in (io.StringIO(text), io.BytesIO(text.encode("ascii"))):
        assert list(WeightChunks(reader).chunks) == [expected]


def test_the_small_int_tables_are_exact():
    # one table, keyed by bytes: text reaches it as an ASCII block's bytes
    canonical = [str(value).encode() for value in range(1024)]
    assert set(_SMALL_BYTES) == set(canonical)
    assert all(type(value) is int and value == int(key) for key, value in _SMALL_BYTES.items())
    assert not hasattr(streampart.core, "_SMALL_STR")
    # a converted token is the table's own int, from either reader: no int
    # is built per token
    for as_bytes in (False, True):
        weights = read_whole_block([key.decode() for key in canonical], as_bytes)
        assert all(weight is _SMALL_BYTES[key] for weight, key in zip(weights, canonical))


@pytest.mark.parametrize("miss_at", [0, SLICE - 1, SLICE, SLICE + 9],
                         ids=["first", "slice-end", "second-slice", "past-slice"])
def test_int_reads_a_block_from_its_first_miss_on(monkeypatch, miss_at):
    # the table's ints are kept up to the first token that is no key: `int`
    # is called on that token and the ones after it, and on none before; an
    # ASCII block from a text reader is read as its bytes too
    tokens = [*small_tokens(miss_at, 14), "1024", *small_tokens(SLICE + 5, 15)]
    expected = list(map(int, tokens))
    read = []
    monkeypatch.setattr(streampart.core, "int", lambda token: read.append(token) or int(token),
                        raising=False)
    for as_bytes in (False, True):
        read.clear()
        assert read_whole_block(tokens, as_bytes) == expected
        assert read == [token.encode() for token in tokens[miss_at:]]


# Run under `python -bb`, where comparing str with bytes raises: it parses
# blocks that fall back to str (a \x1c or no-break space separator, a bad
# token, a token past the digit limit, not ASCII after an ASCII block) and
# blocks of table tokens, from a text reader and, for ASCII text, a binary
# one, against `str.split` with each token checked for ASCII digits.
BYTES_WARNING_SCRIPT = r"""
import io
from streampart import iter_weights, parse_weights
from streampart.core import parse_int

def reference(text):
    weights = []
    for token in text.split():
        if not (token.isascii() and token.isdigit()):
            return weights, f"invalid weight token {token!r}: expected a non-negative integer"
        weights.append(parse_int(token))
    return weights, None

def parsed(parse, text):
    weights = []
    try:
        weights.extend(parse(text))
    except ValueError as exc:
        return weights, str(exc)
    return weights, None

table = " ".join(str(k % 1024) for k in range(5000))
texts = [
    table, table + " 0012 1024 7\n",
    "12\x1c34 5 " + table, table + " 12\x1c34 5",
    "12\u00a034 5 " + table, "1 " * 4095 + "12" + "\u00a07 " + table,
    "7 x 8 " + table, table + " 7 x 8",
    "9" * 5000 + " 3 " + table, table + " " + "9" * 5000 + " 3",
]
for text in texts:
    expected = reference(text)
    # `parse_weights` returns no list when it raises
    assert parsed(parse_weights, text) == (expected if expected[1] is None else ([], expected[1]))
    assert parsed(lambda t: iter_weights(io.StringIO(t)), text) == expected, text[:40]
    if text.isascii():
        binary = parsed(lambda t: iter_weights(io.BytesIO(t.encode("ascii"))), text)
        assert binary == expected, text[:40]
"""


def test_the_parser_never_compares_str_with_bytes():
    # a str token looked up in the bytes-keyed table would compare the two:
    # `hash("12") == hash(b"12")`
    env = dict(os.environ)
    package_root = str(Path(streampart.core.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-bb", "-c", BYTES_WARNING_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


ladder_token_strategy = st.one_of(
    st.integers(0, 1023).map(str),
    st.integers(1024, 10**12).map(str),
    st.builds(lambda zeros, value: "0" * zeros + str(value),
              st.integers(1, 3), st.integers(0, 2047)),
    st.just(LIMIT_TOKEN),
)


@SETTINGS
@given(lead=st.integers(0, 2 * SLICE), body=st.lists(ladder_token_strategy, max_size=30),
       tail=st.integers(0, SLICE))
def test_convert_matches_parse_int(lead, body, tail):
    # the body's tokens land anywhere in the slices, after `lead` table tokens
    tokens = small_tokens(lead, lead) + body + small_tokens(tail, tail)
    expected = list(map(parse_int, tokens))
    assert read_whole_block(tokens, False) == expected
    assert read_whole_block(tokens, True) == expected


@pytest.mark.parametrize("length", [B // 2, 2 * B + 5], ids=["one-chunk", "multi-chunk"])
def test_a_callers_list_is_never_rewritten(length):
    # `_drive` empties each chunk it reads as it builds the chunk's prefix
    # sums: the chunks it reads are its own, never the caller's list
    weights = random.Random(length).choices(range(1001), k=length)
    kept = list(weights)
    # the race holds a chunk's prefix sums past the chunk's walk; the other
    # two walk them and let them go
    for solve in (lambda stream: solve_known_max(stream, 4, "1/10", 1000),
                  lambda stream: solve_unknown_part(stream, 4),
                  lambda stream: probe_run(stream, sum(weights), 4)):
        for stream in (WeightChunks.of_checked(weights), iter(weights)):
            solve(stream)
    solver, probe = UnknownPartSolver(4), ProbeInstance(sum(weights), 4)
    for weight in weights:
        solver.feed(weight)
        probe.feed(weight)
    assert weights == kept


def test_parser_chunks_skip_the_weight_rule(monkeypatch):
    weights = random.Random(3).choices(range(1001), k=2 * B + 5) + [1000]
    text = format_weights(weights)
    expected = solve_known_max(weights, 4, "1/10", 1000).to_json_dict()
    calls = counted_checked_max(monkeypatch)
    for reader in (io.StringIO(text), io.BytesIO(text.encode("ascii"))):
        result = solve_known_max(WeightChunks(reader), 4, "1/10", 1000)
        assert result.to_json_dict() == expected
    assert calls == []
    # the one chunk over the declared maximum is rescanned by the weight rule
    with pytest.raises(DeclaredBoundError, match="^element 1001 exceeds declared maximum"):
        solve_known_max(WeightChunks(io.StringIO(text + " 1001 7")), 4, "1/10", 1000)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [True, -1, 1.5], ids=["bool", "negative", "float"])
@pytest.mark.parametrize("make", [list, iter], ids=["list", "iterator"])
def test_library_streams_keep_the_full_check(make, bad):
    weights = [1, 2] * B + [bad, 3]
    message = f"^weights must be non-negative integers, got {bad!r}$"
    with pytest.raises(ValueError, match=message):
        _drive(make(weights), [], 1000)
    with pytest.raises(ValueError, match=message):
        solve_known_max(make(weights), 2, "1/10", 3)


HUGE = 10**5000


def test_long_values_are_written_exactly():
    assert int_text(HUGE) == "1" + "0" * 5000
    assert int_text(-HUGE) == "-1" + "0" * 5000
    assert format_weights([HUGE, 0, 7]) == "1" + "0" * 5000 + " 0 7"
    assert parse_weights(format_weights([HUGE, 5])) == [HUGE, 5]


@pytest.mark.parametrize("epsilon, text", [(Fraction(HUGE), "1" + "0" * 5000),
                                           (Fraction(HUGE, 3), "1" + "0" * 5000 + "/3"),
                                           (Fraction(1, 2), "1/2")],
                         ids=["long-int", "long-fraction", "short"])
def test_result_json_writes_the_epsilon_exactly(epsilon, text):
    for result in (solve_known_total(iter([1, 2]), 2, epsilon, 3),
                   solve_known_max(iter([1, 1]), 2, epsilon, 1)):
        assert result.to_json_dict()["epsilon"] == text


def test_parse_int_reads_past_the_digit_limit():
    digits = "1" + "0" * 5000
    assert parse_int(digits) == HUGE
    assert parse_int(f" -{digits}\n") == -HUGE
    assert parse_int("+" + digits) == HUGE
    assert parse_int("007") == 7
    # past the limit only a decimal integer is read; anything else is refused
    # as `int` refuses it
    for bad in (digits + ".5", digits + "e3", "x" + digits, "--" + digits, digits + "_"):
        with pytest.raises(ValueError):
            parse_int(bad)
    # ASCII bytes are read as their text, and refused as `int` refuses them
    assert parse_int(digits.encode()) == HUGE
    assert parse_int(b"1234") == 1234
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: b'12x'$"):
        parse_int(b"12x")
    for bad in (b"\xa0" + digits.encode(), digits.encode() + b"_"):
        with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: b'"):
            parse_int(bad)
    # argparse names a `type=` function in its message: "invalid int value"
    assert parse_int.__name__ == "int"


def int_with_no_limit(text: str | bytes) -> int | None:
    """`int(text)` with CPython's digit limit lifted, or None where it
    raises; the limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    except ValueError:
        return None
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", [
    "\x1c2", "2\x1f", "\x1c" + "1" * 5001, "\xa0" + "1" * 5001, "1" * 5001 + "\x1d",
    "\u3000-" + "7" * 5001 + "\x85", "1_0" * 2500, "_1" + "0" * 5001, "1" * 5001 + "__0",
    "\u0661" * 5001, "\xb2" * 5001, "+ " + "1" * 5001, "\x00" + "1" * 5001],
    ids=["fs-lead", "us-tail", "fs-long", "nbsp-long", "gs-long-tail", "unicode-space-long",
         "underscores-long", "underscore-lead", "double-underscore", "arabic-digits",
         "superscripts", "sign-space", "nul"])
def test_parse_int_reads_what_int_reads_with_no_limit(text):
    # on both sides of the digit limit, and as str and as UTF-8 bytes, which
    # `int` strips and reads differently
    for form in (text, text.encode()):
        expected = int_with_no_limit(form)
        if expected is None:
            with pytest.raises(ValueError):
                parse_int(form)
        else:
            assert parse_int(form) == expected


def test_cli_refuses_a_block_count_int_refuses(capsys, monkeypatch):
    # `str.strip` strips the ASCII separators \x1c-\x1f, which `int` refuses
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--p", "\x1c2", "--mode", "partb"])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --p: invalid int value: '\\x1c2'\n")


def test_cli_reads_a_declaration_past_the_digit_limit(capsys, monkeypatch):
    digits = "1" + "0" * 5000
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    code = main(["solve", "--p", "2", "--know", "s", "--s", digits, "--epsilon", "1/2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        f"streampart: declared total weight {digits} but the stream sums to 6\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert main(["solve", "--p", "2", "--know", "m", "--m", digits, "--epsilon", "1/2"]) == 1
    assert capsys.readouterr().err == (
        f"streampart: declared maximum weight {digits} but observed 3\n")
    args = build_parser().parse_args(["solve", "--p", "2", "--n", digits])
    assert args.n == HUGE


def test_cli_reads_a_block_count_past_the_digit_limit(capsys, monkeypatch):
    digits = "1" + "0" * 5000
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert main(["solve", "--p", digits, "--mode", "partb"]) == 0
    expected = solve_unknown_partb([1, 2, 3], HUGE).to_json_dict()
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    # part mode keeps p + 1 separators, so there the count is refused
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert main(["solve", "--p", digits]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"streampart: block count {digits} is too large to index its separators\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert main(["oracle", "--p", digits]) == 0
    assert json.loads(capsys.readouterr().out, parse_int=parse_int) == {
        "optimum": 3, "method": "binsearch", "n": 3, "p": HUGE}


def test_cli_refuses_a_long_declaration_that_is_no_int(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--p", "2", "--know", "s", "--s", "1" * 5000 + "x", "--epsilon", "1/2"])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --s: invalid int value: '{'1' * 5000}x'\n")


def test_cli_gen_reads_int_flags_past_the_digit_limit(capsys):
    digits = "1" + "0" * 5000
    assert main(["gen", "--kind", "constant", "--n", "2", "--m", digits]) == 0
    assert capsys.readouterr().out == f"{digits} {digits}\n"
    with pytest.raises(SystemExit) as exited:
        main(["gen", "--kind", "constant", "--n", "2", "--m", "x"])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --m: invalid int value: 'x'\n")


# `streampart solve` flag of each solver argument, given the list's values
FLAG_VALUES = {
    "epsilon": lambda weights: ["--epsilon", "1/10"],
    "max_weight": lambda weights: ["--m", str(max(weights))],
    "length": lambda weights: ["--n", str(len(weights))],
    "total_weight": lambda weights: ["--s", str(sum(weights))],
}


@pytest.mark.parametrize("mode", [PART_MODE, PARTB_MODE])
@pytest.mark.parametrize("know", sorted(KNOW_TAGS))
def test_cli_prints_the_solver_result_on_the_list(know, mode, tmp_path, capsys):
    # three chunks of weights over several blocks of text
    weights = random.Random(11).choices(range(1001), k=2 * B + 77)
    path = tmp_path / "weights.txt"
    path.write_text(format_weights(weights) + "\n", encoding="ascii")
    tag = KNOW_TAGS[know]
    argv = ["solve", "--know", know, "--p", "5", "--mode", mode, "--input", str(path)]
    for name in SOLVERS[tag]:
        argv += FLAG_VALUES[name](weights)
    assert main(argv) == 0
    profile = KnowledgeProfile(max(weights), len(weights), sum(weights))
    result = solve_tagged(tag, weights, 5, "1/10", profile, mode=mode)
    assert capsys.readouterr().out == json.dumps(result.to_json_dict(), indent=2) + "\n"


def size_of(items: list) -> int:
    """Bytes of a list and the objects it holds."""
    return sys.getsizeof(items) + sum(map(sys.getsizeof, items))


def traced_size(make) -> int:
    """Bytes that tracemalloc counts for what `make()` builds and returns:
    more than `size_of` for sums, whose ints are allocated a digit longer
    than they end up."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()  # noqa: F841  (kept alive until it is measured)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class SpyWalker:
    """A walker that records, in each `walk`, the traced memory and the
    bytes of the prefix sums it is given, an `array('Q')` of words."""

    def __init__(self) -> None:
        self.seen: list[tuple[int, int]] = []

    def walk(self, prefix, top) -> bool:
        self.seen.append((tracemalloc.get_traced_memory()[0], sys.getsizeof(prefix)))
        return True


def test_parser_holds_no_tokens_while_a_chunk_is_walked():
    # four-digit tokens, so a block's token strings weigh more than its ints
    text = " ".join(map(str, random.Random(7).choices(range(1000, 10000), k=3 * B)))
    for source in (text, text.encode("ascii")):
        # one slice's tokens: the most the parser holds while it splits a block
        token_bytes = size_of(source[:READ_BLOCK].split(None, SLICE)[:SLICE])
        spy = SpyWalker()
        stream = WeightChunks(io.StringIO(source) if source is text else io.BytesIO(source))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _drive(stream, [spy])
        finally:
            tracemalloc.stop()
        assert len(spy.seen) > 1
        for traced, prefix_bytes in spy.seen:
            # alive: the chunk's prefix sums, 8 bytes a word, and what the
            # parser still holds: one slice's tokens fit below the bound, a
            # block's tokens pass it
            assert traced - before < prefix_bytes + token_bytes


class SpyReader:
    """A reader that records the traced memory each time a block is read."""

    def __init__(self, reader) -> None:
        self.reader = reader
        self.seen: list[int] = []

    def read(self, size: int):
        self.seen.append(tracemalloc.get_traced_memory()[0])
        return self.reader.read(size)


@pytest.mark.parametrize("walker", ["none", "no-op", "race"])
@pytest.mark.parametrize("source", ["bytes", "str", "list", "checked-list"])
def test_a_pass_holds_one_chunk_at_a_time(source, walker):
    # four-digit tokens, as above, over several blocks of text or chunks of a list
    weights = random.Random(7).choices(range(1000, 10000), k=3 * B)
    text = format_weights(weights)
    reader = None
    if source in ("bytes", "str"):
        data = text.encode("ascii") if source == "bytes" else text
        reader = SpyReader(io.BytesIO(data) if source == "bytes" else io.StringIO(data))
        stream = WeightChunks(reader)
        token_bytes = traced_size(lambda: data[:READ_BLOCK].split(None, SLICE)[:SLICE])
        chunks = chunks_of(text)
    else:
        stream = iter(weights) if source == "list" else WeightChunks.of_checked(weights)
        token_bytes = 0
        chunks = [weights[start:start + B] for start in range(0, len(weights), B)]
    assert len(chunks) > 2
    prefix_bytes = max(traced_size(lambda: list(accumulate(chunk, initial=0)))
                       for chunk in chunks)
    # one slice being summed: a copy of its weights and their sums
    slice_bytes = traced_size(lambda: (weights[:SLICE], list(accumulate(weights[:SLICE]))))
    walkers = {"none": [], "no-op": [SimpleNamespace(walk=lambda prefix, top: True)],
               "race": [_Race((sum(weights), 4), (11, 10), (11**8, 10**8), 1, 4, True)]}[walker]
    # the race holds the prefix sums of the chunk it walks when the next one comes
    held = prefix_bytes if walker == "race" else 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _drive(stream, walkers)[0] == len(weights)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # alive at most: what the race holds, and either one slice's tokens, or
    # the block's ints, while it is parsed, or one chunk, whose weights go a
    # slice at a time as its prefix sums are built; beside them one slice
    # being summed and two blocks of text
    assert peak < held + max(token_bytes, prefix_bytes) + slice_bytes + 2 * READ_BLOCK
    if reader is not None:
        # a block is read beside no chunk, prefix sums or text of the pass:
        # only the race's held prefix sums and its own few objects
        assert len(reader.seen) > 3
        assert max(reader.seen) - before < held + 2 * READ_BLOCK


def test_a_part_pass_hands_its_walker_one_word_per_sum(monkeypatch):
    # parser text of 0..1000: every chunk's prefix sums are machine words, 8
    # bytes each beside the array's header and the room `array` keeps to
    # grow (a sixteenth and 7 items at most); a list of ints takes 36 or more
    weights = random.Random(7).choices(range(1001), k=3 * B)
    seen = []
    walk = UnknownPartSolver.walk

    def spied(solver, prefix, top):
        seen.append((type(prefix), len(prefix), sys.getsizeof(prefix)))
        return walk(solver, prefix, top)

    monkeypatch.setattr(UnknownPartSolver, "walk", spied)
    result = solve_unknown_part(WeightChunks(io.BytesIO(format_weights(weights).encode())), 64)
    assert result.elements_read == len(weights)
    assert len(seen) > 2
    header = sys.getsizeof(array("Q"))
    for kind, length, size in seen:
        assert kind is array
        assert size <= header + 8 * (length + length // 16 + 7)


def test_a_pass_peaks_below_half_of_a_chunks_sums_as_ints():
    # parser text of 0..1000, whose ints the table of small ints owns: the
    # pass holds a block's text, one chunk's list and its sums as words
    weights = random.Random(7).choices(range(1001), k=3 * B)
    data = format_weights(weights).encode("ascii")
    chunks = list(WeightChunks(io.BytesIO(data)).chunks)
    assert len(chunks) > 2
    int_sums = max(traced_size(lambda: list(accumulate(chunk, initial=0))) for chunk in chunks)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _drive(WeightChunks(io.BytesIO(data)), [SimpleNamespace(walk=lambda prefix, top: True)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= int_sums // 2


def test_fresh_ints_are_let_go_as_their_sums_are_built():
    # four-digit weights that the stream makes one at a time, so that the
    # chunk holds the only reference to each: its weights go a slice at a
    # time as its sums are built, so the pass peaks below a chunk's sums as
    # a list of ints and one slice being summed
    weights = random.Random(7).choices(range(1000, 10000), k=3 * B)
    int_sums = max(traced_size(lambda: list(accumulate(weights[start:start + B], initial=0)))
                   for start in range(0, len(weights), B))
    slice_bytes = traced_size(lambda: (weights[:SLICE], list(accumulate(weights[:SLICE]))))
    stream = (weight + 0 for weight in weights)  # a new int each
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert solve_unknown_part(stream, 64).elements_read == len(weights)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < int_sums + slice_bytes


@pytest.mark.parametrize("source", ["bytes", "str"])
def test_a_block_is_converted_without_its_text(source):
    # four-digit tokens; the first block's last token runs on into the next
    text = format_weights(random.Random(7).choices(range(1000, 10000), k=3000))
    data = text.encode("ascii") if source == "bytes" else text
    tokens = data[:READ_BLOCK].split()[:-1]
    ints = list(map(int, tokens))
    reader = io.BytesIO(data) if source == "bytes" else io.StringIO(data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weights, bad, _, at_end = _read_block(reader, "")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (weights, bad, at_end) == (ints, None, False)
    # alive at most: the block's ints, one slice's tokens, and the text the
    # slice is split from, which the slices before it have shortened; a
    # block's tokens, or a second slice of them, add more than the margin
    slice_bytes = traced_size(lambda: data[:READ_BLOCK].split(None, SLICE)[:SLICE])
    assert peak < size_of(ints) + slice_bytes + READ_BLOCK


@pytest.mark.parametrize("source", ["bytes", "str"])
def test_a_block_is_split_one_slice_at_a_time(source):
    # tokens of the table of small ints, whose ints the table owns, over
    # several blocks: the parse allocates text, tokens and lists only
    weights = random.Random(8).choices(range(1024), k=3 * B)
    text = format_weights(weights)
    data = text.encode("ascii") if source == "bytes" else text
    chunks = chunks_of(text)
    assert len(chunks) > 2
    chunk_bytes = max(map(sys.getsizeof, chunks))
    slice_bytes = traced_size(lambda: data[:READ_BLOCK].split(None, SLICE)[:SLICE])
    stream = WeightChunks(io.BytesIO(data) if source == "bytes" else io.StringIO(data))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _drive(stream, [])[0] == len(weights)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # alive: one slice's tokens, beside the text it is split from and the
    # unsplit rest, which the slices before it have shortened, and the
    # chunk's list, which they have filled: less than one block's text, the
    # chunk's list and one slice's tokens. Two slices' tokens alive at once,
    # or a whole block's, pass that
    assert peak < READ_BLOCK + chunk_bytes + slice_bytes
