import csv
import dataclasses
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
from streampart.cli import main

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
            {"generator": generator, "algorithm": "known-S", "epsilon": "1/0"},
            {"generator": generator, "algorithm": "known-S", "epsilon": "1/10"},
        ]
    )
    assert "Invalid literal for Fraction" in records[0].error
    assert records[0].result is None and records[0].epsilon is None
    assert "1/10" in records[1].error and records[1].result is None
    assert records[2].error == "'1/0' has a zero denominator" and records[2].result is None
    assert records[3].error is None and str(records[3].epsilon) == "1/10"


def test_run_bench_malformed_rows_are_row_errors():
    good = {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": 2}
    malformed = [
        {"generator": {"kind": "uniform", "n": "200", "m": 8}},
        {"generator": {"kind": "uniform", "n": 20.5, "m": 8}},
        {"generator": {"kind": "uniform", "n": 5, "m": 2, "size": 3}},
        {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": "2"},
        {"generator": {"kind": "uniform", "n": 5, "m": 2}, "p": 2.0},
        [1, 2],
        "x",
        {"generator": {"kind": "uniform", "n": 5, "m": 2}, "algorithm": ["x"]},
        {"generator": {"kind": "index", "bits": 5, "i": 1}},
        {"generator": {"kind": "uniform", "n": 5, "m": 2, "seed": None}},
        {"generator": {"kind": "uniform", "n": 5, "m": 2}, "algorithm": "known-S",
         "epsilon": [1]},
    ]
    records = run_bench([good, *malformed, good])
    assert records[0].error is None and records[-1].error is None
    for record in records[1:-1]:
        assert record.error and record.result is None
    assert "must be an int" in records[1].error and "must be an int" in records[2].error
    assert "size" in records[3].error and records[3].generator is None
    assert "block count" in records[4].error and "block count" in records[5].error
    assert "must be an object" in records[6].error and "must be an object" in records[7].error
    assert "unknown algorithm tag" in records[8].error
    assert "bits must be a str" in records[9].error
    assert "seed must be an int" in records[10].error
    assert "Fraction" in records[11].error
    buffer = io.StringIO()
    write_csv(records, buffer)
    assert len(buffer.getvalue().splitlines()) == 1 + len(records)


# every column of one row per kind of record; wall_time_s is fixed, so each
# row is exact
FULL_ROWS = [
    ({"generator": {"kind": "uniform", "n": 40, "m": 8, "seed": 3}, "algorithm": "known-S",
      "mode": "part", "epsilon": "1/10", "p": 4},
     "uniform,40,8,,,,3,4,part,known-S,1/10,231,5,46.2,45,1.0266666666666666,,16,114,40,0.5,"),
    # the record's epsilon is printed; the unknown-knowledge result's is None
    ({"generator": {"kind": "constant", "n": 2, "m": 4}, "algorithm": "unknown-2approx",
      "mode": "partb", "epsilon": "1/10", "p": 2},
     "constant,2,4,,,,0,2,partb,unknown-2approx,1/10,8,1,8.0,4,2.0,,0,3,2,0.5,"),
    ({"generator": {"kind": "uniform", "n": 5, "m": 2}, "algorithm": "magic", "p": 3},
     "uniform,5,2,,,,0,3,part,magic,,,,,,,,,,,0.5,unknown algorithm tag 'magic'"),
    ({"generator": {"kind": "uniform", "n": 5, "q": 2}, "algorithm": "known-m",
      "epsilon": "1/4", "p": 2},
     ",,,,,,,2,part,known-m,,,,,,,,,,,0.5,"
     "GeneratorSpec.__init__() got an unexpected keyword argument 'q'"),
    # past the float range a float column reads inf; past CPython's digit
    # limit for `str` an exact column is still written in full
    ({"generator": {"kind": "constant", "n": 3, "m": 10**400}, "algorithm": "known-S",
      "mode": "partb", "epsilon": "1/10", "p": 2},
     f"constant,3,{10**400},,,,0,2,partb,known-S,1/10,{219615 * 10**395},1,inf,"
     f"{2 * 10**400},1.098075,,9,38,3,0.5,"),
    ({"generator": {"kind": "uniform", "n": 50, "m": 9}, "algorithm": "known-S",
      "mode": "partb", "epsilon": "1e400", "p": 4},
     f"uniform,50,9,,,,0,4,partb,known-S,{10**400},{247 * 10**400 + 247},4,inf,63,inf,"
     ",2,10,50,0.5,"),
    ({"generator": {"kind": "constant", "n": 3, "m": 10**5000}, "algorithm": "known-S",
      "mode": "partb", "epsilon": "1/10", "p": 2},
     "constant,3,1" + "0" * 5000 + ",,,,0,2,partb,known-S,1/10,219615" + "0" * 4995
     + ",1,inf,2" + "0" * 5000 + ",1.098075,,9,38,3,0.5,"),
]


@pytest.mark.parametrize("row, line", FULL_ROWS, ids=["known-S", "unknown-epsilon",
                                                      "unknown-tag", "bad-generator",
                                                      "long-m", "long-epsilon",
                                                      "m-past-digit-limit"])
def test_csv_row_pins_every_column(row, line):
    record = dataclasses.replace(run_bench([row])[0], wall_time_s=0.5)
    buffer = io.StringIO()
    write_csv([record], buffer)
    assert buffer.getvalue().splitlines() == [",".join(BENCH_CSV_HEADER), line]


def test_config_reads_ints_past_the_digit_limit(tmp_path, capsys):
    digits = "1" + "0" * 5000
    row = {"generator": {"kind": "constant", "n": 3, "m": 0}, "algorithm": "known-S",
           "mode": "partb", "epsilon": "1/10", "p": 2}
    text = json.dumps([row]).replace('"m": 0', f'"m": {digits}')
    row["generator"]["m"] = 10**5000
    assert load_config(io.StringIO(text)) == [row]
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["bench", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, line = captured.out.splitlines()
    assert header == ",".join(BENCH_CSV_HEADER)
    assert line.startswith(f"constant,3,{digits},") and line.endswith(",")
