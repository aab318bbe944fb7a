import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streampart
from streampart import cli, schedulers
from streampart.cli import main
from streampart.oracle import DP_MAX_CELLS

from helpers import counted_checked_max

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_unknown_partb(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["solve", "--p", "2", "--mode", "partb", "--know", "none"],
        capsys, "1 2 3 4 5\n", monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bottleneck_num"] == 25
    assert payload["bottleneck_den"] == 2
    assert payload["bottleneck_ceil"] == 13
    assert payload["separators"] is None
    assert payload["algorithm"] == "unknown-2approx"
    assert payload["elements_read"] == 5
    assert sorted(payload) == [
        "algorithm", "bottleneck_ceil", "bottleneck_den", "bottleneck_num",
        "elements_read", "epsilon", "instance_count", "merges", "mode",
        "separators", "space_peak_words", "warning_flags",
    ]


def test_solve_known_total_from_file(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("1 2 3 4 5\n")
    code, out, _ = run_cli(
        ["solve", "--p", "2", "--know", "s", "--s", "15",
         "--epsilon", "1/2", "--input", str(path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["bottleneck_num"], payload["bottleneck_den"]) == (45, 4)
    assert payload["separators"] == [1, 5, 6]
    assert payload["epsilon"] == "1/2"
    assert payload["mode"] == "part"


def test_solve_missing_knowledge_flag(capsys, monkeypatch):
    code, _, err = run_cli(
        ["solve", "--p", "2", "--know", "s", "--epsilon", "1/2"],
        capsys, "1 2 3\n", monkeypatch,
    )
    assert code == 2
    assert "requires --s" in err


def test_solve_knowledge_mismatch(capsys, monkeypatch):
    code, _, err = run_cli(
        ["solve", "--p", "2", "--know", "s", "--s", "7", "--epsilon", "1/2"],
        capsys, "1 2 3\n", monkeypatch,
    )
    assert code == 1
    assert "streampart:" in err


def test_solve_zero_denominator_epsilon(capsys, monkeypatch):
    code, out, err = run_cli(
        ["solve", "--p", "2", "--know", "m", "--m", "3", "--epsilon", "1/0"],
        capsys, "1 2 3\n", monkeypatch,
    )
    assert (code, out, err) == (1, "", "streampart: '1/0' has a zero denominator\n")


def test_solve_epsilon_past_the_digit_limit(capsys, monkeypatch):
    # the epsilon's parts are read past CPython's 4300-digit limit for int(str)
    zeros = "0" * 5000
    argv = ["solve", "--p", "2", "--know", "m", "--m", "3", "--epsilon"]
    code, out, err = run_cli(argv + [f"1{zeros}/1{zeros}0"], capsys, "1 2 3\n", monkeypatch)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(argv + ["1/10"], capsys, "1 2 3\n", monkeypatch)
    # 1/10**5000 is read exactly; its grid would need about 7 * 10**4999
    # powers of 1 + eps to reach 2, and is refused before the pass
    code, out, err = run_cli(argv + [f"1/1{zeros}"], capsys, "1 2 3\n", monkeypatch)
    ratio = f"1{'0' * 4999}1/1{zeros}"
    assert (code, out, err) == (
        1, "", f"streampart: growth ratio {ratio} needs too many steps to reach 2\n")


def test_solve_huge_declared_length_builds_no_floor(capsys, monkeypatch):
    # a declared length of 5001 digits sizes a known-mn grid of about 28,000
    # powers of 3/2; the race builds a floor only for a chunk it walks, and
    # the one chunk read is walked after the declarations are checked
    built = []
    floor = schedulers._Race._floor

    def counted(self, level, step):
        built.append((level, step))
        return floor(self, level, step)

    monkeypatch.setattr(schedulers._Race, "_floor", counted)
    length = "1" + "0" * 5000
    code, out, err = run_cli(
        ["solve", "--p", "2", "--know", "mn", "--m", "3", "--n", length, "--epsilon", "1/2"],
        capsys, "1 2 3\n", monkeypatch,
    )
    assert (code, out, err) == (
        1, "", f"streampart: declared length {length} but read 3 elements\n")
    assert built == []


def test_solve_missing_input_file(capsys):
    code, _, err = run_cli(
        ["solve", "--p", "2", "--input", "/nonexistent/weights.txt"], capsys
    )
    assert code == 1
    assert "streampart:" in err


def test_oracle(capsys, monkeypatch):
    code, out, _ = run_cli(["oracle", "--p", "2"], capsys, "1 2 3 4 5\n", monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"optimum": 9, "method": "binsearch", "n": 5, "p": 2}

    code, out, _ = run_cli(
        ["oracle", "--p", "2", "--method", "dp"], capsys, "1 2 3 4 5\n", monkeypatch
    )
    assert json.loads(out)["method"] == "dp"
    assert json.loads(out)["optimum"] == 9


def test_oracle_takes_the_parsers_list_as_checked(capsys, monkeypatch):
    calls = counted_checked_max(monkeypatch)

    def oracle(method, p, text):
        return run_cli(["oracle", "--p", p, "--method", method], capsys, text, monkeypatch)

    for method in ("binsearch", "dp"):
        assert oracle(method, "3", "4 0 7\n1 9 2 2\n") == (0, "\n".join([
            "{", '  "optimum": 11,', f'  "method": "{method}",', '  "n": 7,', '  "p": 3', "}",
            ""]), "")
        assert oracle(method, "2", "") == (
            0, f'{{\n  "optimum": 0,\n  "method": "{method}",\n  "n": 0,\n  "p": 2\n}}\n', "")
        # a bad token is the parser's error, a bad block count the oracle's
        assert oracle(method, "1", "1 x 2") == (
            1, "", "streampart: invalid weight token 'x': expected a non-negative integer\n")
        assert oracle(method, "1", "1 2") == (
            1, "", "streampart: block count must be at least 2, got 1\n")
    assert oracle("dp", "64", "1 " * 1000) == (
        1, "", f"streampart: instance too large for the quadratic oracle "
               f"(n^2 * p = 64000000 > {DP_MAX_CELLS})\n")
    assert calls == []


def test_json_output_is_what_json_dumps_writes(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["solve", "--p", "2", "--know", "s", "--s", "15", "--epsilon", "1/2"],
        capsys, "1 2 3 4 5\n", monkeypatch,
    )
    payload = streampart.solve_known_total(iter([1, 2, 3, 4, 5]), 2, "1/2", 15).to_json_dict()
    assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")
    code, out, _ = run_cli(
        ["oracle", "--p", "2", "--method", "dp"], capsys, "1 2 3 4 5\n", monkeypatch
    )
    payload = {"optimum": 9, "method": "dp", "n": 5, "p": 2}
    assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")


def test_json_output_writes_long_ints_exactly(capsys, monkeypatch):
    huge = "1" + "0" * 5000
    code, out, _ = run_cli(["oracle", "--p", "2"], capsys, huge + " 3\n", monkeypatch)
    assert (code, out) == (
        0, '{\n  "optimum": ' + huge + ',\n  "method": "binsearch",\n  "n": 2,\n  "p": 2\n}\n')
    code, out, _ = run_cli(["solve", "--p", "2", "--mode", "partb"], capsys, huge + " 3\n",
                           monkeypatch)
    twice = "2" + "0" * 5000
    assert (code, out) == (0, "\n".join([
        "{", '  "mode": "partb",', '  "algorithm": "unknown-2approx",',
        f'  "bottleneck_num": {twice},', '  "bottleneck_den": 1,',
        f'  "bottleneck_ceil": {twice},', '  "separators": null,', '  "merges": null,',
        '  "instance_count": 0,', '  "space_peak_words": 3,', '  "elements_read": 2,',
        '  "epsilon": null,', '  "warning_flags": []', "}", ""]))


def test_help_lists_the_modes_and_oracles(capsys):
    for argv, choices in ((["solve", "--help"], "{part,partb}"),
                          (["oracle", "--help"], "{binsearch,dp}")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert choices in capsys.readouterr().out


def test_gen_yz_prefix_and_determinism(capsys):
    code, out, _ = run_cli(
        ["gen", "--kind", "yz", "--n", "10", "--t", "2", "--i", "1"], capsys
    )
    assert code == 0
    tokens = out.split()
    assert tokens[:2] == ["1", "1"]
    assert len(tokens) == 20
    code, again, _ = run_cli(
        ["gen", "--kind", "yz", "--n", "10", "--t", "2", "--i", "1"], capsys
    )
    assert again == out


def test_gen_to_file_then_oracle(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    code, out, _ = run_cli(
        ["gen", "--kind", "index", "--bits", "10", "--i", "2", "--out", str(path)],
        capsys,
    )
    assert code == 0 and out == ""
    assert path.read_text() == "1 3 3 1 4 2\n"
    code, out, _ = run_cli(["oracle", "--p", "2", "--input", str(path)], capsys)
    assert json.loads(out)["optimum"] == 7


def test_gen_missing_fields(capsys):
    code, _, err = run_cli(["gen", "--kind", "uniform", "--n", "4"], capsys)
    assert code == 1
    assert "requires m" in err


def test_bench_end_to_end(tmp_path, capsys):
    config = [
        {
            "generator": {"kind": "constant", "n": 2, "m": 4},
            "algorithm": "unknown-2approx",
            "p": 2,
        },
        {"generator": {"kind": "yz", "n": 12, "t": 3, "i": 1}, "p": 5},
    ]
    config_path = tmp_path / "rows.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    code, _, err = run_cli(
        ["bench", "--config", str(config_path), "--out", str(out_path)], capsys
    )
    assert code == 0
    assert "1 of 2 rows failed" in err
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("kind,n,m,")
    assert len(lines) == 3
    assert "implies p = 2" in lines[2]


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # --p is required
    assert exc.value.code == 2


def test_installed_entry_point(tmp_path):
    # Write the wrapper an installer makes for the declared entry point and
    # lead PYTHONPATH with the imported package, so both calls below run the
    # code under test rather than whatever `streampart` is installed.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "streampart" in scripts, "[project.scripts] declares no streampart"
    module, func = scripts["streampart"].split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "streampart"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    package_root = str(Path(streampart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "streampart.cli", "oracle", "--p", "2"],
        input="1 2 3 4 5\n", capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["optimum"] == 9
    proc = subprocess.run(
        ["streampart", "gen", "--kind", "constant", "--n", "2", "--m", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["4", "4"]


def test_solve_refuses_a_grid_too_fine_to_build(capsys, monkeypatch):
    # about 7 * 10**11 powers of 1 + eps to reach 2, each power past
    # GROWTH_POWER_BITS: refused from the float estimate, before any power
    code, out, err = run_cli(
        ["solve", "--p", "2", "--know", "m", "--m", "3", "--epsilon", "1/1000000000000"],
        capsys, "1 2 3\n", monkeypatch,
    )
    assert (code, out, err) == (1, "", "streampart: growth ratio 1000000000001/1000000000000 "
                                       "needs too many steps to reach 2\n")


def run_main(argv, capsys, monkeypatch, stdin_text=""):
    """`main(argv)` as the process would end it: (exit code, stdout, stderr),
    also when argparse exits."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE = ["solve", "--p", "2", "--know", "m", "--m", "9", "--epsilon", "1/10"]
# each call of one process, with what it reads and the exit code it ends in
CALLS = [
    (SOLVE, "4 9 1 7 3\n", 0),
    (["solve", "--p", "x"], "", 2),  # argparse's error
    (["solve", "--p", "2", "--know", "m", "--epsilon", "1/10"], "1 2\n", 2),  # UsageError
    (["solve", "--p", "2", "--know", "m", "--m", "3", "--epsilon", "1/0"], "1 2 3\n", 1),
    (["oracle", "--p", "2", "--method", "dp"], "1 2 3 4 5\n", 0),
    (["gen", "--kind", "uniform", "--n", "6", "--m", "9", "--seed", "4"], "", 0),
    (["solve", "--help"], "", 0),
    (SOLVE, "4 9 1 7 3\n", 0),
]


def test_calls_in_one_process_leak_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    shared = [run_main(argv, capsys, monkeypatch, text) for argv, text, _ in CALLS]
    fresh = []
    for argv, text, _ in CALLS:
        cli.build_parser.cache_clear()
        fresh.append(run_main(argv, capsys, monkeypatch, text))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [code for _, _, code in CALLS]
    assert shared[0] == shared[-1] and shared[0][1].startswith("{")
    assert "streampart: --know m requires --m\n" == shared[2][2]


def test_help_follows_columns_when_printed(capsys, monkeypatch):
    parser = cli.build_parser()
    helps = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(run_main(["solve", "--help"], capsys, monkeypatch))
    (wide_code, wide, _), (narrow_code, narrow, _) = helps
    assert (wide_code, narrow_code) == (0, 0)
    assert wide.split() == narrow.split()
    assert len(narrow.splitlines()) > len(wide.splitlines())
    assert cli.build_parser() is parser
    # the same text as a parser built while COLUMNS is 40
    cli.build_parser.cache_clear()
    assert run_main(["solve", "--help"], capsys, monkeypatch) == helps[1]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    per_call = []
    for _ in range(10):
        assert run_main(["oracle", "--p", "2"], capsys, monkeypatch, "1 2 3\n")[0] == 0
        per_call.append(len(built))
    # the first call builds the top parser and its four subcommands
    assert per_call == [5] * 10
