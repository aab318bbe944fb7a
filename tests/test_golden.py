"""The golden corpora: every CLI case of `golden.py`, run in-process through
`cli.main`, writes the stdout, stderr and exit code recorded in
`golden.json`, byte for byte, and every library case's result hashes to
the digest recorded in `golden_library.json`."""

import json

import golden


def test_cli_output_matches_the_golden_corpus(tmp_path):
    expected = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    records = golden.record(tmp_path)
    assert sorted(records) == sorted(expected)
    assert {name: records[name] for name in records if records[name] != expected[name]} == {}


def test_library_solves_match_the_golden_digests():
    expected = json.loads(golden.LIBRARY_PATH.read_text(encoding="utf-8"))
    records = golden.record_library()
    assert sorted(records) == sorted(expected)
    assert {name: records[name] for name in records if records[name] != expected[name]} == {}
