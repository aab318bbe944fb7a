import csv
import io
import json

import pytest

from streampart import (
    BENCH_CSV_HEADER,
    BenchRecord,
    GeneratorSpec,
    load_config,
    run_bench,
    write_csv,
)

SMALL_CONFIG = [
    {
        "generator": {"kind": "uniform", "n": 40, "m": 8, "seed": 3},
        "algorithm": "known-S",
        "mode": "part",
        "epsilon": "1/10",
        "p": 4,
    },
    {
        "generator": {"kind": "constant", "n": 2, "m": 4},
        "algorithm": "unknown-2approx",
        "mode": "part",
        "p": 2,
    },
    {
        "generator": {"kind": "yz", "n": 12, "t": 3, "i": 2, "seed": 1},
        "algorithm": "known-m",
        "mode": "partb",
        "epsilon": "1/64",
        "p": 2,
    },
]


def test_run_bench_small_config():
    records = run_bench(SMALL_CONFIG)
    assert len(records) == 3
    assert all(r.error is None for r in records)

    known_total = records[0]
    assert known_total.algorithm == "known-S"
    assert known_total.oracle_optimum is not None
    assert 1.0 <= known_total.ratio <= 1.1 + 1e-9

    worst_case = records[1]
    assert worst_case.result.bottleneck == 8
    assert worst_case.oracle_optimum == 4
    assert worst_case.ratio == 2.0

    hard = records[2]
    # closed-form optimum for the two-phase family: 2t - 1 + 2(i - 1)
    assert hard.oracle_optimum == 2 * 3 - 1 + 2 * (2 - 1)
    assert 1.0 <= hard.ratio <= (1 + 1 / 64) + 1e-9


def test_run_bench_captures_row_errors():
    records = run_bench(
        [
            {"generator": {"kind": "yz", "n": 12, "t": 3, "i": 2}, "p": 3},
            {"generator": {"kind": "uniform", "n": 5, "m": 2}, "algorithm": "magic"},
            {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": 2},
        ]
    )
    assert records[0].error == "generator kind 'yz' implies p = 2"
    assert records[0].result is None and records[0].ratio is None
    assert "unknown algorithm tag" in records[1].error
    assert records[2].error is None


def test_run_bench_is_deterministic():
    first = run_bench(SMALL_CONFIG)
    second = run_bench(SMALL_CONFIG)
    for a, b in zip(first, second):
        assert a.result.bottleneck == b.result.bottleneck
        assert a.result.space_peak_words == b.result.space_peak_words
        assert a.oracle_optimum == b.oracle_optimum


def test_csv_round_trip():
    records = run_bench(SMALL_CONFIG)
    buffer = io.StringIO()
    write_csv(records, buffer)
    buffer.seek(0)
    rows = list(csv.reader(buffer))
    assert rows[0] == BENCH_CSV_HEADER
    assert len(rows) == 1 + len(records)
    header_index = {name: k for k, name in enumerate(BENCH_CSV_HEADER)}
    constant_row = rows[2]
    assert constant_row[header_index["kind"]] == "constant"
    assert constant_row[header_index["bottleneck_num"]] == "8"
    assert constant_row[header_index["bottleneck_den"]] == "1"
    assert constant_row[header_index["ratio"]] == "2.0"
    assert constant_row[header_index["error"]] == ""


def test_load_config():
    assert load_config(io.StringIO("[]")) == []
    loaded = load_config(io.StringIO(json.dumps(SMALL_CONFIG)))
    assert loaded == SMALL_CONFIG
    with pytest.raises(ValueError):
        load_config(io.StringIO('{"generator": {}}'))


def test_record_ratio_edge_cases():
    record = BenchRecord(
        generator=GeneratorSpec("constant", n=2, m=0),
        num_blocks=2,
        mode="partb",
        algorithm="unknown-2approx",
        epsilon=None,
        result=None,
        oracle_optimum=None,
        wall_time_s=0.0,
        error="boom",
    )
    assert record.ratio is None
    zero = run_bench(
        [{"generator": {"kind": "constant", "n": 3, "m": 0}, "mode": "partb", "p": 2}]
    )[0]
    assert zero.oracle_optimum == 0 and zero.ratio == 1.0


def test_run_bench_bad_epsilon_is_a_row_error():
    generator = {"kind": "uniform", "n": 5, "m": 2}
    records = run_bench(
        [
            {"generator": generator, "algorithm": "known-S", "epsilon": "abc"},
            {"generator": generator, "algorithm": "known-S", "epsilon": 0.1},
            {"generator": generator, "algorithm": "known-S", "epsilon": "1/10"},
        ]
    )
    assert "Invalid literal for Fraction" in records[0].error
    assert records[0].result is None and records[0].epsilon is None
    assert "1/10" in records[1].error and records[1].result is None
    assert records[2].error is None and str(records[2].epsilon) == "1/10"


def test_run_bench_malformed_rows_are_row_errors():
    good = {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": 2}
    malformed = [
        {"generator": {"kind": "uniform", "n": "200", "m": 8}},
        {"generator": {"kind": "uniform", "n": 20.5, "m": 8}},
        {"generator": {"kind": "uniform", "n": 5, "m": 2, "size": 3}},
        {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": "2"},
        {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": 2.0},
    ]
    records = run_bench([good, *malformed, good])
    assert records[0].error is None and records[-1].error is None
    for record in records[1:-1]:
        assert record.error and record.result is None
    assert "must be an int" in records[1].error and "must be an int" in records[2].error
    assert "size" in records[3].error and records[3].generator is None
    assert "block count" in records[4].error and "block count" in records[5].error
    buffer = io.StringIO()
    write_csv(records, buffer)
    assert len(buffer.getvalue().splitlines()) == 1 + len(records)
