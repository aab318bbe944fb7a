"""Tests of the benchmark harness itself: run with
``python -m pytest perfbench/tests`` from the repository root."""

import random

import pytest
from streampart.oracle import opt_bottleneck_dp
from streampart.schedulers import solve_known_total

from perfbench.checks import Case, check_result, reference_optimum
from perfbench.spans import Stamps, Tracer, stamped
from perfbench.workloads import WORKLOADS, sweep_rows

WEIGHTS = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]


def valid_result():
    case = Case.of(WEIGHTS, 3, "known-S", "part", "1/10")
    payload = solve_known_total(iter(WEIGHTS), 3, "1/10", sum(WEIGHTS)).to_json_dict()
    pins = {case.pin_key: [payload["instance_count"], payload["space_peak_words"]]}
    return case, payload, pins


def test_checker_accepts_the_solver_output():
    case, payload, pins = valid_result()
    assert check_result(case, payload, case.optimum(), pins) == []


@pytest.mark.parametrize("field, value, complaint", [
    ("bottleneck_num", None, "below the optimum"),
    ("separators", None, "do not cover"),
    ("elements_read", len(WEIGHTS) - 1, "elements_read"),
    ("instance_count", 1, "pinned"),
])
def test_checker_rejects_tampered_results(field, value, complaint):
    case, payload, pins = valid_result()
    optimum = case.optimum()
    if field == "bottleneck_num":
        payload.update(bottleneck_num=optimum - 1, bottleneck_den=1)
    elif field == "separators":
        payload["separators"] = payload["separators"][:-1] + [len(WEIGHTS)]
    else:
        payload[field] = value
    problems = check_result(case, payload, optimum, pins)
    assert any(complaint in p for p in problems), problems


def test_checker_rejects_a_block_over_the_bottleneck():
    case, payload, pins = valid_result()
    payload["separators"] = [1] + [len(WEIGHTS) + 1] * 3  # everything in one block
    assert any("weighs" in p for p in check_result(case, payload, case.optimum(), pins))


def test_reference_optimum_matches_the_dp_oracle():
    rng = random.Random(5)
    for _ in range(200):
        weights = [rng.randint(0, 9) for _ in range(rng.randint(0, 12))]
        blocks = rng.randint(2, 5)
        case = Case.of(weights, blocks, "unknown-2approx", "part", None)
        assert reference_optimum(case.prefix, blocks) == opt_bottleneck_dp(weights, blocks).optimum


def test_stamped_passes_each_element_once_unchanged():
    items = [5, 0, 7, 7, 1000]
    pulled = []

    def source():
        for item in items:
            pulled.append(item)
            yield item

    stamps = Stamps()
    stream = stamped(source(), stamps)
    assert stamps.first is None  # nothing happens before the first pull
    assert list(stream) == items
    assert pulled == items
    assert stamps.first <= stamps.last


def test_self_time_subtracts_children():
    tracer = Tracer()
    root = tracer.add("op", 0, 0.0, 10.0)
    tracer.add("a", 0, 1.0, 3.0, root)
    tracer.add("b", 0, 2.0, 6.0, root)  # overlaps a; covered once
    assert tracer.self_seconds()[root] == pytest.approx(5.0)


@pytest.mark.parametrize("name", ["known-m-grid", "unknown-part", "partb-stream"])
def test_cli_inputs_follow_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.prepare(11, tmp_path)
    text = (tmp_path / f"{name}-input.txt").read_text()
    again = workload.prepare(11, tmp_path)
    assert again.streams == first.streams and again.argv == first.argv
    assert (tmp_path / f"{name}-input.txt").read_text() == text
    assert workload.prepare(12, tmp_path).streams != first.streams


def test_cli_declares_the_observed_maximum(tmp_path):
    op = WORKLOADS["known-m-grid"].prepare(3, tmp_path)
    argv = op.argv
    assert int(argv[argv.index("--m") + 1]) == max(op.streams[0])


def test_sweep_rows_follow_the_seed():
    rows = sweep_rows(4)
    assert len(rows) == 66
    assert sweep_rows(4) == rows
    assert sweep_rows(5) != rows
