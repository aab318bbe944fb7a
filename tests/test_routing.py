"""Every entry point routes a tag to the same solver with the same result."""

import io
import json

import pytest

from streampart import GeneratorSpec, KnowledgeProfile, StreamStats, dispatch, run_bench
from streampart.cli import main
from streampart.schedulers import (SOLVERS, solve_known_max, solve_known_max_length,
                                   solve_known_total, solve_tagged)

GENERATOR = {"kind": "uniform", "n": 24, "m": 9, "seed": 7}
NUM_BLOCKS = 3
KNOW_FLAG = {"known-S": "s", "known-mn": "mn", "known-m": "m", "unknown-2approx": "none"}
# the declarations that make dispatch pick each tag it can route to
DISPATCH_PROFILE = {
    "known-S": lambda stats: KnowledgeProfile(total_weight=stats.total_weight),
    "known-m": lambda stats: KnowledgeProfile(max_weight=stats.max_weight),
    "unknown-2approx": lambda stats: KnowledgeProfile(),
}


@pytest.mark.parametrize("mode", ["part", "partb"])
@pytest.mark.parametrize("tag", sorted(SOLVERS))
def test_entry_points_agree(tag, mode, tmp_path, capsys):
    weights = GeneratorSpec(**GENERATOR).make()
    stats = StreamStats.from_weights(weights)
    declared = KnowledgeProfile(
        max_weight=stats.max_weight, length=stats.length, total_weight=stats.total_weight
    )
    epsilon = None if tag == "unknown-2approx" else "1/10"
    expected = solve_tagged(tag, iter(weights), NUM_BLOCKS, epsilon, declared, mode=mode)
    expected = expected.to_json_dict()
    assert (expected["algorithm"], expected["mode"]) == (tag, mode)

    if tag in DISPATCH_PROFILE:
        profile = DISPATCH_PROFILE[tag](stats)
        routed = dispatch(iter(weights), NUM_BLOCKS, epsilon, profile, mode=mode)
        assert routed.to_json_dict() == expected

    row = {"generator": GENERATOR, "algorithm": tag, "mode": mode, "p": NUM_BLOCKS,
           "epsilon": epsilon}
    [record] = run_bench([row])
    assert record.error is None
    assert record.result.to_json_dict() == expected

    path = tmp_path / "w.txt"
    path.write_text(" ".join(map(str, weights)) + "\n")
    argv = ["solve", "--p", str(NUM_BLOCKS), "--mode", mode, "--know", KNOW_FLAG[tag],
            "--input", str(path)]
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
    # declarations the chosen solver does not take are ignored
    argv += ["--m", str(stats.max_weight), "--n", str(stats.length),
             "--s", str(stats.total_weight)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize(
    "know, given, flag",
    [("m", ["--epsilon", "1/64"], "--m"), ("mn", ["--epsilon", "1/64", "--m", "3"], "--n")],
)
def test_solve_missing_declaration_exits_two(know, given, flag, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert main(["solve", "--p", "2", "--know", know, *given]) == 2
    assert f"requires {flag}" in capsys.readouterr().err


def test_solve_tagged_rejects_unknown_tags_and_missing_declarations():
    with pytest.raises(ValueError, match="unknown algorithm tag 'magic'"):
        solve_tagged("magic", iter([1]), 2, None, KnowledgeProfile())
    with pytest.raises(ValueError, match="known-mn requires length"):
        solve_tagged("known-mn", iter([1]), 2, "1/2", KnowledgeProfile(max_weight=1))


# each grid solver's epsilon and declarations with one of them None, and
# the error that names it
MISSING = {
    "known-S requires total_weight": (solve_known_total, ("1/2", None)),
    "known-S requires epsilon": (solve_known_total, (None, 3)),
    "known-mn requires max_weight": (solve_known_max_length, ("1/2", None, 2)),
    "known-mn requires length": (solve_known_max_length, ("1/2", 2, None)),
    "known-mn requires epsilon": (solve_known_max_length, (None, 2, 2)),
    "known-m requires max_weight": (solve_known_max, ("1/2", None)),
    "known-m requires epsilon": (solve_known_max, (None, 2)),
}


@pytest.mark.parametrize("message", sorted(MISSING))
def test_grid_solvers_called_directly_name_what_is_missing(message):
    solver, given = MISSING[message]
    # the same requirement check as every other entry point
    with pytest.raises(ValueError, match=f"^{message}$"):
        solver(iter([1, 2]), 2, *given)


@pytest.mark.parametrize("mode", ["part", "partb"])
def test_the_unknown_solver_ignores_epsilon(mode, tmp_path, capsys):
    weights = GeneratorSpec(**GENERATOR).make()
    path = tmp_path / "w.txt"
    path.write_text(" ".join(map(str, weights)) + "\n")
    printed, solved, routed = [], [], []
    for given in ([], ["--epsilon", "garbage"]):
        assert main(["solve", "--p", str(NUM_BLOCKS), "--mode", mode, "--know", "none",
                     "--input", str(path), *given]) == 0
        printed.append(capsys.readouterr().out)
    for epsilon in (None, "garbage"):
        solved.append(solve_tagged("unknown-2approx", iter(weights), NUM_BLOCKS, epsilon,
                                   KnowledgeProfile(), mode=mode).to_json_dict())
        routed.append(dispatch(iter(weights), NUM_BLOCKS, epsilon, KnowledgeProfile(),
                               mode=mode).to_json_dict())
    assert printed[0] == printed[1]
    assert solved[0] == solved[1] == routed[0] == routed[1] == json.loads(printed[0])
