"""Generated-input checks against simple references: the chunked walk of
both instance classes against the per-element machines in `helpers`,
`realize_partition` against the per-element probe, the unknown-knowledge fast
path and its chunked walk against the full regroup, also on streams that
cross the chunk size, the frontier-searched probe grid against the race that
walks every probe, the oracle against exhaustive search, the DP oracle
against the quadratic DP, the two oracle commands against each other, every
solver's guarantee against the exhaustive optimum, the known-m guarantee on
long streams where an escalator answers against the binary-search oracle,
the grid solvers at fine eps against the race and the oracle, and every
pass and the binary-search oracle over prefix sums held as machine words
and as ints, both kinds in one pass."""

import io
import json
import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate, pairwise
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streampart import (
    PART_MODE,
    PARTB_MODE,
    InfeasibleBoundError,
    KnowledgeProfile,
    ProbeExtInstance,
    ProbeInstance,
    block_weights,
    bottleneck_of,
    opt_bottleneck_binsearch,
    opt_bottleneck_dp,
    probe_run,
    realize_partition,
    validate_partitioning,
)
from streampart import feasibility, oracle, schedulers
from streampart.bench import run_bench
from streampart.cli import ORACLES, main
from streampart.core import WeightChunks, floor_fraction, parse_int
from streampart.feasibility import B, _drive, sandwich
from streampart.schedulers import (
    EPSILON_GUARANTEE_LIMIT,
    KNOWN_MAX_LENGTH_TAG,
    KNOWN_MAX_TAG,
    KNOWN_TOTAL_TAG,
    SOLVERS,
    UNKNOWN_TAG,
    UnknownPartSolver,
    _Race,
    solve_tagged,
    solve_unknown_part,
    solve_unknown_partb,
)
from helpers import (
    MIXES,
    TIER1,
    ReferenceEscalator,
    ReferenceProbe,
    ReferenceUnknownPart,
    ReferenceUnknownWalk,
    brute_force_optimum,
    mixed_stream,
    quadratic_dp_optimum,
    reference_race,
)
import golden

SETTINGS = settings(TIER1, max_examples=300)

# short streams rich in zeros; p up to 6 often exceeds the length
weights_strategy = st.lists(st.one_of(st.just(0), st.integers(0, 9)), max_size=8)
blocks_strategy = st.integers(2, 6)
# small bounds, so that single elements often exceed the floored threshold
bound_strategy = st.builds(Fraction, st.integers(0, 30), st.integers(1, 3))


@SETTINGS
@given(weights=weights_strategy, num_blocks=blocks_strategy, bound=bound_strategy)
def test_whole_list_greedy_matches_streaming_probe(weights, num_blocks, bound):
    reference = ReferenceProbe(bound.numerator // bound.denominator, num_blocks, True)
    for weight in weights:
        if reference.failure is None:
            reference.feed(weight)
    try:
        realized = realize_partition(weights, num_blocks, bound)
    except InfeasibleBoundError as error:
        assert reference.failure is not None
        assert str(error) == (f"bound {bound} admits no partitioning into {num_blocks} "
                              f"blocks ({reference.failure.value})")
    else:
        assert reference.failure is None
        # blocks that were never opened are empty and sit past the stream end
        padding = [len(weights) + 1] * (num_blocks - len(reference.separators))
        assert realized == (1, *reference.separators, *padding)


@SETTINGS
@given(weights=weights_strategy, num_blocks=blocks_strategy)
def test_binsearch_oracle_matches_brute_force(weights, num_blocks):
    optimum = opt_bottleneck_binsearch(weights, num_blocks).optimum
    assert optimum == brute_force_optimum(weights, num_blocks)
    assert probe_run(weights, optimum, num_blocks).success
    if optimum > 0:
        assert not probe_run(weights, optimum - 1, num_blocks).success


@settings(TIER1, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(13, 150),
       mix=st.sampled_from(MIXES), num_blocks=st.one_of(st.integers(2, 16), st.integers(2, 200)))
@example(seed=1, length=150, mix="uniform", num_blocks=200)
def test_dp_oracle_matches_the_quadratic_dp(seed, length, mix, num_blocks):
    # past the lengths exhaustive search reaches, on zero runs, spikes that
    # lift the maximum mid-stream, and p past n
    weights = mixed_stream(seed, length, mix)
    assert (opt_bottleneck_dp(weights, num_blocks).optimum
            == quadratic_dp_optimum(weights, num_blocks))


def test_the_two_oracle_commands_agree_on_the_golden_inputs(tmp_path, capsys):
    # each golden parser input through --input: the same exit code and error
    # from both methods, and the same optimum when the text parses
    for name, (data, _) in golden._inputs().items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        printed = []
        for method in ORACLES:
            code = main(["oracle", "--p", "8", "--method", method, "--input", str(path)])
            out, err = capsys.readouterr()
            optimum = json.loads(out, parse_int=parse_int)["optimum"] if code == 0 else out
            printed.append((code, err, optimum))
        assert printed[0] == printed[1], name


@SETTINGS
@given(weights=st.one_of(weights_strategy, st.lists(st.just(0), max_size=8),
                         st.lists(st.integers(0, 1000), max_size=30)),
       num_blocks=st.one_of(blocks_strategy, st.integers(2, 64)))
def test_sandwich_holds_the_optimum(weights, num_blocks):
    # streams rich in zeros, all zeros (m = 0) and wider weights; below the
    # low end a probe fails, and at the high end it succeeds
    low, high = sandwich(sum(weights), max(weights, default=0), num_blocks)
    optimum = opt_bottleneck_binsearch(weights, num_blocks).optimum
    assert low <= optimum <= high
    assert probe_run(weights, high, num_blocks).success
    if low > 0:
        assert not probe_run(weights, low - 1, num_blocks).success


# how a test chunks the stream for the walk: a fixed chunk size, or chunk
# edges placed at the reference's events (block openings, failures, merges):
# just before the event's element, just after it, or one further on
CHUNKINGS = ("1", "2", "3", "7", "whole", "before-event", "after-event", "past-event")


def chunk_edges(chunking: str, length: int, events: list[int]) -> list[int]:
    """Sorted positions k (0 < k < length) after which a chunk ends."""
    if chunking == "whole":
        return []
    if chunking.isdigit():
        return list(range(int(chunking), length, int(chunking)))
    shift = {"before-event": -1, "after-event": 0, "past-event": 1}[chunking]
    return sorted({e + shift for e in events if 0 < e + shift < length})


def walk_in_chunks(instance, weights: list[int], edges: list[int]) -> None:
    bounds = [0, *edges, len(weights)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = weights[lo:hi]
        if not instance.walk(list(accumulate(chunk, initial=0)), max(chunk, default=0)):
            return


def feed_reference(reference, weights: list[int]) -> None:
    for weight in weights:
        reference.feed(weight)
        if reference.failure is not None:
            return


def assert_same_state(walked, reference) -> None:
    assert walked.failure is reference.failure
    assert walked.next_index == reference.next_index  # the failing index + 1
    # a walker stores its separators as machine words, the reference as a list
    separators = walked.separators
    assert (separators if separators is None else list(separators)) == reference.separators
    assert walked.threshold_floor == reference.threshold_floor
    assert getattr(walked, "merges", 0) == reference.merges
    if walked.failure is None:
        assert walked.block_ordinal == reference.block_ordinal
        assert walked.block_weight == reference.block_weight


walk_weights = st.lists(st.one_of(st.just(0), st.integers(0, 9)), max_size=30)


@SETTINGS
@given(weights=walk_weights, num_blocks=blocks_strategy, threshold=st.integers(0, 25),
       mode=st.sampled_from((PART_MODE, PARTB_MODE)), chunking=st.sampled_from(CHUNKINGS))
def test_probe_walk_matches_per_element_probe(weights, num_blocks, threshold, mode, chunking):
    store = mode == PART_MODE
    reference = ReferenceProbe(threshold, num_blocks, store)
    feed_reference(reference, weights)
    walked = ProbeInstance(threshold, num_blocks, store_separators=store)
    walk_in_chunks(walked, weights, chunk_edges(chunking, len(weights), reference.events))
    assert_same_state(walked, reference)


@SETTINGS
@given(weights=walk_weights, num_blocks=blocks_strategy,
       slack=st.builds(Fraction, st.integers(0, 5), st.integers(1, 4)),
       # an int maximum, or a rational one above the stream's largest weight
       above=st.one_of(st.just(0), st.builds(Fraction, st.integers(0, 5), st.integers(1, 4))),
       mode=st.sampled_from((PART_MODE, PARTB_MODE)), chunking=st.sampled_from(CHUNKINGS))
def test_escalator_walk_matches_per_element_escalator(weights, num_blocks, slack, above, mode,
                                                      chunking):
    store = mode == PART_MODE
    top = max(weights, default=0) + above
    walked = ProbeExtInstance(top, num_blocks, slack, store_separators=store)
    reference = ReferenceEscalator(top * (1 + slack), num_blocks, store)
    feed_reference(reference, weights)
    walk_in_chunks(walked, weights, chunk_edges(chunking, len(weights), reference.events))
    assert_same_state(walked, reference)
    assert walked.bottleneck == reference.base * 2**reference.merges


GRID_TAGS = sorted(set(SOLVERS) - {UNKNOWN_TAG})
# streams for the race: weights up to 3, where the eps = 1/2 floors tie
# across doubling levels; constant runs, which at p = 2 and eps = 1/2 kill
# every known-m probe, so an escalator answers; weights up to 1000; low runs
# around a spike; and one element, which no floor of known-m or known-mn is
# below, so the winner is a floor the total never passed
race_streams = st.one_of(
    st.lists(st.integers(0, 3), max_size=60),
    st.builds(lambda weight, length: [weight] * length, st.integers(1, 3),
              st.integers(30, 120)),
    st.lists(st.integers(0, 1000), max_size=30),
    st.builds(lambda head, spike, tail: head + [spike] + tail, st.lists(st.integers(0, 5),
              max_size=30), st.integers(50, 1000), st.lists(st.integers(0, 5), max_size=30)),
    st.lists(st.integers(0, 1000), min_size=1, max_size=1),
)


def parsed_chunks(weights: list[int], size: int) -> WeightChunks:
    """`weights` as a `WeightChunks` whose lists hold `size` weights each,
    as the parser's chunks do, which `_drive` hands the race as they are."""
    stream = WeightChunks.__new__(WeightChunks)
    stream.chunks = iter([weights[k:k + size] for k in range(0, len(weights), size)])
    return stream


@settings(TIER1, max_examples=250)
@given(weights=race_streams, num_blocks=st.sampled_from((2, 3, 8, 64)),
       tag=st.sampled_from(GRID_TAGS), mode=st.sampled_from((PART_MODE, PARTB_MODE)),
       epsilon=st.sampled_from((Fraction(1, 100), Fraction(1, 65), Fraction(1, 10),
                                Fraction(1, 2), Fraction(3))),
       size=st.sampled_from((1, 3, 7, 4096)), parsed=st.sampled_from((None, 2)))
# every probe dies and an escalator answers, in both modes and with the two
# escalators of eps = 3 (ratio 5/2); a one-element stream at perfbench's
# known-m shape, whose winner no element reached
@example(weights=[3] * 60, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PART_MODE,
         epsilon=Fraction(1, 2), size=1, parsed=None)
@example(weights=[2] * 45, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PARTB_MODE,
         epsilon=Fraction(1, 2), size=3, parsed=None)
@example(weights=[3] * 60, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PART_MODE,
         epsilon=Fraction(3), size=3, parsed=None)
@example(weights=[1000], num_blocks=64, tag=KNOWN_MAX_TAG, mode=PART_MODE,
         epsilon=Fraction(1, 100), size=4096, parsed=None)
# chunks of 7: every floor dies in the last of 6 chunks (elements 36-40),
# so the escalators first matter there; and in the 6th of 9, so the last
# three walk only the escalators; also as parsed chunks of 2
@example(weights=[1] * 40, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PART_MODE,
         epsilon=Fraction(1, 2), size=7, parsed=None)
@example(weights=[1] * 60, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PART_MODE,
         epsilon=Fraction(1, 2), size=7, parsed=None)
@example(weights=[1] * 40, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PARTB_MODE,
         epsilon=Fraction(1, 2), size=7, parsed=2)
@example(weights=[1] * 60, num_blocks=2, tag=KNOWN_MAX_TAG, mode=PART_MODE,
         epsilon=Fraction(1, 2), size=7, parsed=2)
# chunk 1 builds floor 7 (the total is 8); the spike lifts the low end to
# 12, past floors level 0 has built, so the level jumps again, to 12
@example(weights=[1] * 8 + [12, 1], num_blocks=3, tag=KNOWN_TOTAL_TAG, mode=PART_MODE,
         epsilon=Fraction(1, 10), size=8, parsed=None)
def test_probe_grid_matches_the_race_that_walks_every_probe(weights, num_blocks, tag, mode,
                                                            epsilon, size, parsed):
    profile = KnowledgeProfile(max_weight=max(weights, default=0), length=len(weights),
                               total_weight=sum(weights))

    def stream():
        return iter(weights) if parsed is None else parsed_chunks(weights, parsed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "B", size)
        result = solve_tagged(tag, stream(), num_blocks, epsilon, profile, mode=mode)
        patch.setattr(schedulers, "_race", reference_race)
        expected = solve_tagged(tag, stream(), num_blocks, epsilon, profile, mode=mode)
    assert result.to_json_dict() == expected.to_json_dict()
    assert result.probe_instances == expected.probe_instances
    assert result.probe_ext_instances == expected.probe_ext_instances


@SETTINGS
@given(weights=race_streams.filter(bool), num_blocks=blocks_strategy,
       base=st.builds(Fraction, st.integers(0, 30), st.integers(1, 4)),
       ratio=st.sampled_from((Fraction(11, 10), Fraction(5, 4), Fraction(3, 2), Fraction(4))),
       doublings=st.integers(1, 4), steps=st.integers(0, 8),
       mode=st.sampled_from((PART_MODE, PARTB_MODE)),
       chunking=st.sampled_from(("1", "2", "3", "7", "whole")))
def test_probe_grid_live_floors_are_upward_closed(weights, num_blocks, base, ratio, doublings,
                                                  steps, mode, chunking):
    store = mode == PART_MODE
    # the target ratio**steps gives exactly `steps` steps
    race = _Race((base.numerator, base.denominator), (ratio.numerator, ratio.denominator),
                 (ratio.numerator**steps, ratio.denominator**steps), doublings, num_blocks, store)
    assert race.steps == steps
    floors = sorted({floor_fraction(base * 2**i * ratio**j)
                     for i in range(doublings) for j in range(steps + 1)})
    probes = [ProbeInstance(floor, num_blocks, store_separators=store) for floor in floors]
    edges = [0, *chunk_edges(chunking, len(weights), []), len(weights)]

    def walked_through(hi, final):
        # every probe walked on its own: the live floors are upward closed
        live = [floor for floor, probe in zip(floors, probes) if probe.failure is None]
        assert live == floors[len(floors) - len(live):]
        total = sum(weights[:hi])
        # the race keeps one probe per live floor the total has passed, each
        # where the probe walked on its own is; the last walk keeps only the
        # lowest survivor, walked to the stream's end
        kept = live[:1] if final else [floor for floor in live if floor < total]
        assert [mine.threshold_floor for mine in race.probes] == kept
        for mine in race.probes:
            probe = probes[floors.index(mine.threshold_floor)]
            assert (mine.block_ordinal, mine.block_weight, mine.next_index, mine.separators) == (
                probe.block_ordinal, probe.block_weight, probe.next_index, probe.separators)
        # a floor the total has not passed holds every element in its first block
        for floor, probe in zip(floors, probes):
            if floor >= total:
                separators = probe.separators
                assert (probe.block_ordinal, probe.block_weight,
                        separators if separators is None else list(separators)) == (
                    1, total, [] if store else None)

    for lo, hi in pairwise(edges):
        chunk = weights[lo:hi]
        prefix = list(accumulate(chunk, initial=0))
        # the race walks the chunk it held, the one before this
        assert race.walk(prefix, max(chunk))
        # once every floor has died the race keeps no probe, and walks on
        # building none
        walked_through(lo, final=False)
        for probe in probes:
            if probe.failure is None:
                probe.walk(prefix, max(chunk))
    race.close()
    # a finished race keeps no prefix sums
    assert race.held is None
    walked_through(len(weights), final=True)


# a probe that dies in the first of three chunks: by an element above its
# threshold, or by running out of blocks
@pytest.mark.parametrize("weights, threshold", [
    ([1] * 100 + [9] + [1] * (2 * B), 5),
    ([3] * (2 * B + 50), 5),
], ids=["element-exceeds-threshold", "partitions-exhausted"])
@pytest.mark.parametrize("mode", [PART_MODE, PARTB_MODE])
def test_drive_stops_walking_a_dead_probe(weights, threshold, mode):
    store = mode == PART_MODE
    reference = ReferenceProbe(threshold, 4, store)
    feed_reference(reference, weights)
    assert reference.failure is not None and reference.next_index <= B
    walked = ProbeInstance(threshold, 4, store_separators=store)
    assert _drive(iter(weights), [walked]) == (len(weights), sum(weights), max(weights))
    assert_same_state(walked, reference)


small = st.integers(0, 9)
# streams that reach the fast path's edges: zero prefixes (one block, no
# pair yet), ascending runs (many merges), one late spike that raises the
# maximum and with it the bound, and plain short streams (p >= n often)
unknown_streams = st.one_of(
    st.lists(small, max_size=40),
    st.builds(lambda zeros, tail: [0] * zeros + tail, st.integers(0, 20),
              st.lists(small, max_size=20)),
    st.lists(st.integers(0, 50), max_size=40).map(sorted),
    st.builds(lambda head, spike, tail: head + [spike] + tail, st.lists(small, max_size=30),
              st.integers(10, 1000), st.lists(small, max_size=3)),
)


@SETTINGS
@given(weights=unknown_streams, num_blocks=st.one_of(st.just(2), st.integers(2, 8), st.just(64)))
def test_unknown_part_fast_path_matches_full_regroup(weights, num_blocks):
    solver = UnknownPartSolver(num_blocks)
    reference = ReferenceUnknownPart(num_blocks)
    for weight in weights:
        solver.feed(weight)
        reference.feed(weight)
        assert solver.separators == reference.separators
        assert solver.block_weights == reference.block_weights
        assert solver.bound == reference.bound


@SETTINGS
@given(weights=unknown_streams, num_blocks=st.one_of(st.just(2), st.integers(2, 8), st.just(64)),
       chunking=st.sampled_from(("1", "2", "3", "7", "whole")))
def test_unknown_part_walk_matches_full_regroup(weights, num_blocks, chunking):
    solver = UnknownPartSolver(num_blocks)
    walk_in_chunks(solver, weights, chunk_edges(chunking, len(weights), []))
    reference = ReferenceUnknownPart(num_blocks)
    for weight in weights:
        reference.feed(weight)
    assert solver.separators == reference.separators
    assert solver.block_weights == reference.block_weights
    assert solver.bound == reference.bound
    assert solver.elements_read == reference.elements_read


@st.composite
def cutoff_streams(draw) -> list[int]:
    """Runs of zeros and small weights, each followed by one weight near
    the maximum, cut to a length about the chunk size. A light run grows
    the last pair p times faster than the cap and leaves it past the walk's
    cutoff, 2 * (total + top) / p, and the heavy weight after it lifts the
    cap by nearly 2 * top: the last pair comes back within reach."""
    length = draw(st.sampled_from((B - 1, B, B + 1, 2 * B + 7)))
    top = draw(st.integers(1, 1000))
    light = draw(st.integers(1, 9))
    run = draw(st.integers(1, 120))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = []
    while len(weights) < length:
        weights += [rng.randint(0, light) if rng.random() < 0.5 else 0
                    for _ in range(rng.randint(1, run))]
        weights.append(top - rng.randint(0, min(top, 3)))
    return weights[:length]


@settings(TIER1, max_examples=24)
@given(weights=cutoff_streams(), num_blocks=st.sampled_from((2, 3, 4, 64)))
def test_unknown_part_regroups_the_last_pair_back_within_reach(weights, num_blocks):
    # fed one element at a time, each chunk's top is its one weight, so the
    # cutoff is tight; `_drive` walks chunks of `B`, whose top is the maximum
    solver = UnknownPartSolver(num_blocks)
    reference = ReferenceUnknownPart(num_blocks)
    for weight in weights:
        solver.feed(weight)
        reference.feed(weight)
        assert solver.separators == reference.separators
        assert solver.block_weights == reference.block_weights
        assert solver.bound == reference.bound
    chunked = UnknownPartSolver(num_blocks)
    _drive(WeightChunks.of_checked(weights), [chunked])
    assert chunked.separators == reference.separators
    assert chunked.block_weights == reference.block_weights
    assert chunked.bound == reference.bound


def walker_state(solver: UnknownPartSolver) -> tuple:
    return (solver._starts, solver._sums, solver._pair, solver.total, solver.max_weight,
            solver.elements_read)


# streams long enough for the total to pass p * max at p = 64, where the
# walk goes event by event; at p = 2 no event ever comes
@settings(TIER1, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(200, 3000),
       mix=st.sampled_from(MIXES),
       num_blocks=st.sampled_from((2, 3, 64)), size=st.sampled_from((1, 3, 50, 4096)))
def test_unknown_part_walk_matches_per_element_walk(seed, length, mix, num_blocks, size):
    weights = mixed_stream(seed, length, mix)
    solver = UnknownPartSolver(num_blocks)
    reference = ReferenceUnknownWalk(num_blocks)
    for lo in range(0, length, size):
        chunk = weights[lo:lo + size]
        prefix = list(accumulate(chunk, initial=0))
        assert solver.walk(prefix, max(chunk))
        assert reference.walk(prefix, max(chunk))
        assert walker_state(solver) == walker_state(reference)
    assert solver.result() == reference.result()


# at p = 2 the one block holds the whole total T, and its grow test
# 2 * T <= 2 * max(2M, T) always holds: no element ever opens a second block,
# which is why the walk skips the opening bisect there
@SETTINGS
@given(weights=st.one_of(unknown_streams, st.lists(st.integers(0, 10**6), max_size=60)),
       chunking=st.sampled_from(("1", "3", "whole")))
def test_unknown_part_never_opens_a_block_at_two(weights, chunking):
    reference = ReferenceUnknownWalk(2)
    walk_in_chunks(reference, weights, chunk_edges(chunking, len(weights), []))
    assert reference._starts == [] and reference._pair is None
    assert reference._sums == [sum(weights)]
    length, top, total = len(weights), max(weights, default=0), sum(weights)
    result = solve_unknown_part(iter(weights), 2)
    assert result.separators == (1, length + 1, length + 1)
    assert result.bottleneck == max(2 * top, total)


def boundary_stream(length: int, order: str, seed: int) -> list[int]:
    weights = random.Random(seed).choices(range(1001), k=length)
    if order == "unsorted":
        return weights
    return sorted(weights, reverse=order == "descending")


# lengths around the chunk size `B`: one short, exact, one over, and a
# stream that ends in a short fourth chunk
@pytest.mark.parametrize("num_blocks", [2, 3, 64])
@pytest.mark.parametrize("order", ["unsorted", "ascending", "descending"])
@pytest.mark.parametrize("length", [B - 1, B, B + 1, 3 * B + 7])
def test_unknown_solvers_across_chunk_boundaries(length, order, num_blocks):
    check_unknown_solvers(boundary_stream(length, order, seed=length * 7 + num_blocks),
                          num_blocks)


def test_unknown_solvers_on_a_perfbench_shaped_stream():
    # perfbench's unknown-part op: 10^4 uniform weights in 0..1000, p = 64,
    # read by `_drive` in chunks of `B`, so most of it is walked event by event
    check_unknown_solvers(boundary_stream(10_000, "unsorted", seed=1131), 64)


def guard_regroups(monkeypatch) -> list[int]:
    """Make every full regroup assert on entry that some pair of its blocks
    can merge under its cap; return the list of the stream indices of the
    elements it was entered with."""
    entered = []
    regroup = UnknownPartSolver._regroup

    def guarded(solver, weight, index, cap):
        sums = solver._sums
        assert solver.num_blocks * min(map(add, sums, sums[1:])) <= cap
        entered.append(index)
        regroup(solver, weight, index, cap)

    monkeypatch.setattr(UnknownPartSolver, "_regroup", guarded)
    return entered


def test_no_regroup_is_wasted_on_a_perfbench_shaped_stream(monkeypatch):
    entered = guard_regroups(monkeypatch)
    solve_unknown_part(iter(boundary_stream(10_000, "unsorted", seed=1131)), 64)
    assert entered


@pytest.mark.parametrize("size", [1, 50, B])
@pytest.mark.parametrize("num_blocks", [3, 64])
@pytest.mark.parametrize("mix", MIXES)
def test_no_regroup_is_wasted(monkeypatch, mix, num_blocks, size):
    # a regroup with no pair under the cap would only grow the last block or
    # open one, which the walk does without it
    entered = guard_regroups(monkeypatch)
    weights = mixed_stream(num_blocks * 1000 + size, 3000, mix)
    solver = UnknownPartSolver(num_blocks)
    for lo in range(0, len(weights), size):
        chunk = weights[lo:lo + size]
        assert solver.walk(list(accumulate(chunk, initial=0)), max(chunk))
    assert entered


def greedy_runs(blocks: list[int], num_blocks: int, cap: int) -> list[tuple[int, int]]:
    """The (first block, block count) of each run the greedy regroup of
    `blocks` under `cap` merges: each output block of two or more."""
    runs = []
    first, acc = 0, blocks[0]
    for at, weight in enumerate(blocks[1:], 1):
        if num_blocks * (acc + weight) <= cap:
            acc += weight
        else:
            runs.append((first, at - first))
            first, acc = at, weight
    runs.append((first, len(blocks) - first))
    return [run for run in runs if run[1] > 1]


def test_the_regroup_scan_reaches_each_of_its_cases(monkeypatch):
    # the in-place scan splices each run as it finds it and keeps the smallest
    # pair sum as it goes: each case below moves the indices it splices at or
    # the pairs it counts
    seen = Counter()
    regroup = UnknownPartSolver._regroup

    def classified(solver, weight, index, cap):
        sums, starts = solver._sums, solver._starts
        blocks = sums + [weight]
        runs = greedy_runs(blocks, solver.num_blocks, cap)
        regroup(solver, weight, index, cap)
        assert solver._sums is sums and solver._starts is starts
        seen["a run of 3 or more blocks"] += any(size > 2 for _, size in runs)
        seen["two runs"] += len(runs) > 1
        seen["a run at block 0"] += runs[0][0] == 0
        seen["the element merged into the last block"] += sum(runs[-1]) == len(blocks)
        seen["_pair left as None"] += solver._pair is None

    monkeypatch.setattr(UnknownPartSolver, "_regroup", classified)
    for mix in ("zeros", "spikes", "uniform"):
        for num_blocks in (3, 8, 64):
            solve_unknown_part(iter(mixed_stream(num_blocks, 3000, mix)), num_blocks)
    assert len(seen) == 5 and all(seen.values()), seen


def check_unknown_solvers(weights: list[int], num_blocks: int) -> None:
    """Both unknown-knowledge solvers against the full regroup and the
    closed form."""
    length = len(weights)
    result = solve_unknown_part(iter(weights), num_blocks)
    reference = ReferenceUnknownPart(num_blocks)
    for weight in weights:
        reference.feed(weight)
    assert list(result.separators) == reference.separators
    assert block_weights(weights, result.separators) == reference.block_weights
    assert result.bottleneck == reference.bound
    assert result.elements_read == length
    top, total = max(weights), sum(weights)
    value_only = solve_unknown_partb(iter(weights), num_blocks)
    assert value_only.bottleneck == max(Fraction(top), Fraction(total, num_blocks)) + top
    assert value_only.elements_read == length


@settings(TIER1, max_examples=200)
@given(weights=st.lists(st.one_of(st.just(0), st.integers(0, 9)), max_size=7),
       num_blocks=st.integers(2, 4), tag=st.sampled_from(sorted(SOLVERS)),
       mode=st.sampled_from((PART_MODE, PARTB_MODE)),
       epsilon=st.sampled_from((Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))))
def test_every_solver_sandwiches_the_optimum(weights, num_blocks, tag, mode, epsilon):
    profile = KnowledgeProfile(max_weight=max(weights, default=0), length=len(weights),
                               total_weight=sum(weights))
    result = solve_tagged(tag, iter(weights), num_blocks, epsilon, profile, mode=mode)
    best = brute_force_optimum(weights, num_blocks)
    bound = result.bottleneck
    assert best <= bound
    if tag == UNKNOWN_TAG:
        assert bound <= 2 * best
    elif tag != KNOWN_MAX_TAG or epsilon < EPSILON_GUARANTEE_LIMIT:
        assert bound <= (1 + epsilon) * best
    if mode == PART_MODE:
        separators = result.separators
        # p + 1 non-decreasing separators from 1 to n + 1
        assert validate_partitioning(len(weights), num_blocks, separators) is None
        assert bottleneck_of(weights, separators) <= bound.numerator // bound.denominator
    else:
        assert result.separators is None


@settings(TIER1, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), num_blocks=st.sampled_from((2, 3)),
       epsilon=st.sampled_from((Fraction(1, 65), Fraction(1, 100))),
       block_length=st.integers(40_000, 100_000), zero_odds=st.integers(10, 1000))
def test_known_max_escalator_keeps_the_guarantee(seed, num_blocks, epsilon, block_length,
                                                 zero_odds):
    # m = 1 and at least nine ones in ten: the optimum, over 36000, passes
    # every grid bound (below 2**15 * (1 + 1/100) here), so every probe dies
    # and an escalator answers, with epsilon inside the guarantee
    assert epsilon < EPSILON_GUARANTEE_LIMIT
    rng = random.Random(seed)
    weights = [1] + [int(rng.randrange(zero_odds) > 0) for _ in range(num_blocks * block_length)]
    profile = KnowledgeProfile(max_weight=1)
    result = solve_tagged(KNOWN_MAX_TAG, iter(weights), num_blocks, epsilon, profile)
    assert result.merges is not None
    best = opt_bottleneck_binsearch(weights, num_blocks).optimum
    bound = result.bottleneck
    assert best <= bound <= (1 + epsilon) * best
    assert validate_partitioning(len(weights), num_blocks, result.separators) is None
    assert bottleneck_of(weights, result.separators) <= bound.numerator // bound.denominator
    value_only = solve_tagged(KNOWN_MAX_TAG, iter(weights), num_blocks, epsilon, profile,
                              mode=PARTB_MODE)
    assert (value_only.bottleneck, value_only.merges) == (bound, result.merges)


# fine grids over a stream of 1500 weights in chunks of 500: each level's
# cursor jumps to the sandwich's low end and steps over thousands of steps
FINE_STREAM = random.Random(26).choices(range(1001), k=1500)
FINE_PROFILE = KnowledgeProfile(max_weight=max(FINE_STREAM), length=len(FINE_STREAM),
                                total_weight=sum(FINE_STREAM))


@pytest.mark.parametrize("num_blocks", [2, 64])
@pytest.mark.parametrize("tag, epsilon", [
    *(pytest.param(tag, Fraction(1, 1000), id=f"{tag}-1/1000") for tag in GRID_TAGS),
    pytest.param(KNOWN_TOTAL_TAG, Fraction(1, 3000), id=f"{KNOWN_TOTAL_TAG}-1/3000"),
])
def test_fine_grid_matches_the_race_that_walks_every_probe(tag, epsilon, num_blocks,
                                                           monkeypatch):
    monkeypatch.setattr(feasibility, "B", 500)
    result = solve_tagged(tag, iter(FINE_STREAM), num_blocks, epsilon, FINE_PROFILE)
    monkeypatch.setattr(schedulers, "_race", reference_race)
    expected = solve_tagged(tag, iter(FINE_STREAM), num_blocks, epsilon, FINE_PROFILE)
    assert result.to_json_dict() == expected.to_json_dict()
    assert (result.probe_instances, result.probe_ext_instances) == (
        expected.probe_instances, expected.probe_ext_instances)


@pytest.mark.parametrize("num_blocks", [2, 64])
@pytest.mark.parametrize("tag", [KNOWN_MAX_LENGTH_TAG, KNOWN_MAX_TAG])
def test_fine_grid_keeps_the_guarantee(tag, num_blocks, monkeypatch):
    # at eps = 1/3000 the race that walks every probe takes seconds a solve,
    # so these grids are checked against the optimum only
    epsilon = Fraction(1, 3000)
    monkeypatch.setattr(feasibility, "B", 500)
    result = solve_tagged(tag, iter(FINE_STREAM), num_blocks, epsilon, FINE_PROFILE)
    best = opt_bottleneck_binsearch(FINE_STREAM, num_blocks).optimum
    bound = result.bottleneck
    assert best <= bound <= (1 + epsilon) * best
    assert validate_partitioning(len(FINE_STREAM), num_blocks, result.separators) is None
    assert bottleneck_of(FINE_STREAM, result.separators) <= bound.numerator // bound.denominator


# the largest weight of which a chunk of B has prefix sums that fit a
# machine word, below 2**64
WORD_WEIGHT = (2**64 - 1) // B


def word_and_long_runs(seed: int) -> list[int]:
    """Runs of B weights, one chunk each, that alternate between weights
    whose chunk's prefix sums fit machine words (0..1000, and WORD_WEIGHT)
    and weights whose sums could pass 2**64 - 1 (WORD_WEIGHT + 1, and
    weights near 2**62), then half a chunk of 0..1000."""
    rng = random.Random(seed)

    def small(length: int) -> list[int]:
        return rng.choices(range(1001), k=length)

    runs = [small(B), [WORD_WEIGHT] * B, small(B), [WORD_WEIGHT + 1] * B, small(B),
            [rng.randrange(2**62 - 1000, 2**62) for _ in range(B)], small(B // 2)]
    return [weight for run in runs for weight in run]


WIDE_RUNS = word_and_long_runs(7)
WIDE_PROFILE = KnowledgeProfile(max_weight=max(WIDE_RUNS), length=len(WIDE_RUNS),
                                total_weight=sum(WIDE_RUNS))
# the buffer `_drive` hands its walkers for each of the runs' chunks
WIDE_BUFFERS = [array, array, array, list, array, list, array]


class BufferSpy:
    """A walker that records the type of each chunk's prefix sums."""

    def __init__(self) -> None:
        self.types: list[type] = []

    def walk(self, prefix, top) -> bool:
        self.types.append(type(prefix))
        return True


def test_a_pass_hands_machine_words_where_the_sums_fit():
    for stream in (WeightChunks.of_checked(WIDE_RUNS), iter(WIDE_RUNS)):
        spy = BufferSpy()
        assert _drive(stream, [spy]) == (len(WIDE_RUNS), sum(WIDE_RUNS), max(WIDE_RUNS))
        assert spy.types == WIDE_BUFFERS


@pytest.mark.parametrize("mode", [PART_MODE, PARTB_MODE])
@pytest.mark.parametrize("tag", GRID_TAGS)
def test_race_over_both_buffers_matches_the_race_that_walks_every_probe(tag, mode,
                                                                        monkeypatch):
    def solve():
        return solve_tagged(tag, WeightChunks.of_checked(WIDE_RUNS), 8, Fraction(1, 10),
                            WIDE_PROFILE, mode=mode)

    result = solve()
    monkeypatch.setattr(schedulers, "_race", reference_race)
    expected = solve()
    assert result.to_json_dict() == expected.to_json_dict()
    assert (result.probe_instances, result.probe_ext_instances) == (
        expected.probe_instances, expected.probe_ext_instances)


def test_unknown_part_over_both_buffers_matches_the_full_regroup():
    result = solve_unknown_part(WeightChunks.of_checked(WIDE_RUNS), 8)
    reference = ReferenceUnknownPart(8)
    for weight in WIDE_RUNS:
        reference.feed(weight)
    assert list(result.separators) == reference.separators
    assert result.bottleneck == reference.bound
    assert result.elements_read == reference.elements_read


@pytest.mark.parametrize("mode", [PART_MODE, PARTB_MODE])
def test_probe_over_both_buffers_matches_the_per_element_probe(mode):
    store = mode == PART_MODE
    best = oracle._dp_optimum(WIDE_RUNS, max(WIDE_RUNS), 8).optimum
    # the optimum, whose first block spans chunks of both kinds; one below
    # it, which dies; and 2**63, which opens blocks in chunks of both kinds
    # before it dies
    for threshold in (best, best - 1, 2**63):
        reference = ReferenceProbe(threshold, 8, store)
        feed_reference(reference, WIDE_RUNS)
        walked = ProbeInstance(threshold, 8, store_separators=store)
        _drive(WeightChunks.of_checked(WIDE_RUNS), [walked])
        assert_same_state(walked, reference)
        outcome = probe_run(WeightChunks.of_checked(WIDE_RUNS), threshold, 8, mode=mode)
        assert outcome.success is (reference.failure is None)
        if outcome.success and store:
            assert outcome.separators == feasibility.pad_separators(
                reference.separators, 8, len(WIDE_RUNS))


@pytest.mark.parametrize("weights, buffer", [
    (WIDE_RUNS[:B], array),  # 0..1000
    ([WORD_WEIGHT] * B, array),  # sums up to B * WORD_WEIGHT < 2**64
    (WIDE_RUNS[:3 * B], list),  # the same, among 0..1000: 3 * B * WORD_WEIGHT could pass it
    (WIDE_RUNS, list),
], ids=["small", "word-edge", "past-word", "all-runs"])
def test_binsearch_over_either_buffer_matches_the_dp(weights, buffer, monkeypatch):
    seen = set()
    walk = ProbeInstance.walk

    def spied(probe, prefix, top):
        seen.add(type(prefix))
        return walk(probe, prefix, top)

    monkeypatch.setattr(ProbeInstance, "walk", spied)
    heaviest = max(weights)
    for num_blocks in (2, 8):
        assert (oracle._binsearch_optimum(weights, heaviest, num_blocks).optimum
                == oracle._dp_optimum(weights, heaviest, num_blocks).optimum)
    assert seen == {buffer}


class HandedSpy:
    """Records the stream index each instance walk starts at and the type
    of the prefix sums it is handed, for the grid's instances and the
    unknown-knowledge walker."""

    def __init__(self, monkeypatch) -> None:
        self.seen: list[tuple[int, type]] = []
        for cls in (feasibility._Walker, UnknownPartSolver):
            monkeypatch.setattr(cls, "walk", self._spied(cls.walk))

    def _spied(self, walk):
        def spied(walker, prefix, top):
            self.seen.append((getattr(walker, "next_index", 0), type(prefix)))
            return walk(walker, prefix, top)
        return spied

    @property
    def types(self) -> set[type]:
        return {kind for _, kind in self.seen}


def test_one_chunk_and_unknown_solves_walk_machine_words(monkeypatch):
    spy = HandedSpy(monkeypatch)
    # perfbench's known-m-grid shape, parsed from its text, which ends in a
    # newline: one chunk, whose walk comes after the pass, so the race holds
    # it with no probe built
    weights = random.Random(9001).choices(range(1001), k=2000)
    text = (" ".join(map(str, weights)) + "\n").encode("ascii")
    solve_tagged(KNOWN_MAX_TAG, WeightChunks(io.BytesIO(text)), 64, Fraction(1, 100),
                 KnowledgeProfile(max_weight=max(weights)))
    assert spy.seen and spy.types == {array}
    spy.seen.clear()
    # perfbench's unknown-part shape: no race, three chunks
    solve_unknown_part(WeightChunks.of_checked(random.Random(9001).choices(range(1001),
                                                                          k=10_000)), 64)
    assert len(spy.seen) == 3 and spy.types == {array}


def bench_sweep_shapes() -> list[dict]:
    """Rows of perfbench's bench-sweep shapes: 400 weights, and the one
    weight its memory pass solves, for every solver, mode, p and eps; the
    hard families at p = 2; and the two 200,000-weight rows."""
    rows = [{"generator": {"kind": kind, "n": n, "m": 1000, "seed": 11}, "algorithm": tag,
             "mode": mode, "p": num_blocks, "epsilon": epsilon}
            for tag in [*GRID_TAGS, UNKNOWN_TAG]
            for epsilon in ([None] if tag == UNKNOWN_TAG else ["1/10", "1/100"])
            for kind, n in (("uniform", 400), ("spike", 400), ("constant", 1))
            for num_blocks in (4, 64) for mode in (PART_MODE, PARTB_MODE)]
    for tag in [*GRID_TAGS, UNKNOWN_TAG]:
        epsilon = None if tag == UNKNOWN_TAG else "1/100"
        for generator in ({"kind": "yz", "n": 400, "t": 50, "i": 7, "seed": 11},
                          {"kind": "index", "bits": "01" * 75, "i": 150}):
            rows.append({"generator": generator, "algorithm": tag, "mode": PART_MODE, "p": 2,
                         "epsilon": epsilon})
    big = {"kind": "uniform", "n": 200_000, "m": 1000, "seed": 11}
    rows.append({"generator": big, "algorithm": UNKNOWN_TAG, "mode": PARTB_MODE, "p": 64,
                 "epsilon": None})
    rows.append({"generator": big, "algorithm": KNOWN_TOTAL_TAG, "mode": PARTB_MODE, "p": 4,
                 "epsilon": "1/10"})
    return rows


def test_bench_sweep_rows_walk_machine_words(monkeypatch):
    spy = HandedSpy(monkeypatch)
    records = run_bench(bench_sweep_shapes())
    assert not [record.error for record in records if record.error]
    # the long known-S row races over 49 chunks with a window of a few probes
    assert len(spy.seen) > 49 and spy.types == {array}


def test_a_wide_race_walks_lists_from_its_second_held_chunk(monkeypatch):
    spy = HandedSpy(monkeypatch)
    weights = random.Random(7).choices(range(1001), k=3 * B)
    solve_tagged(KNOWN_MAX_LENGTH_TAG, WeightChunks.of_checked(weights), 64, Fraction(1, 1000),
                 KnowledgeProfile(max_weight=max(weights), length=len(weights)))
    handed = {}
    for start, kind in spy.seen:
        handed.setdefault((start - 1) // B, set()).add(kind)
    # chunk 1 is held before any probe is built; its walk keeps thousands of
    # probes, so the race holds each later chunk as a list of ints
    assert handed == {0: {array}, 1: {list}, 2: {list}}


@settings(TIER1, max_examples=150)
@given(weights=race_streams, num_blocks=st.sampled_from((2, 3, 8, 64)),
       tag=st.sampled_from(GRID_TAGS), mode=st.sampled_from((PART_MODE, PARTB_MODE)),
       epsilon=st.sampled_from((Fraction(1, 100), Fraction(1, 10), Fraction(1, 2))),
       size=st.sampled_from((1, 3, 7)), holds_lists=st.booleans())
def test_race_holding_either_buffer_matches_the_race_that_walks_every_probe(
        weights, num_blocks, tag, mode, epsilon, size, holds_lists):
    profile = KnowledgeProfile(max_weight=max(weights, default=0), length=len(weights),
                               total_weight=sum(weights))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "B", size)
        # the rule forced on (every held chunk a list of ints) or off
        patch.setattr(_Race, "_holdable",
                      (lambda race, prefix: list(prefix)) if holds_lists else
                      (lambda race, prefix: prefix))
        result = solve_tagged(tag, iter(weights), num_blocks, epsilon, profile, mode=mode)
        patch.setattr(schedulers, "_race", reference_race)
        expected = solve_tagged(tag, iter(weights), num_blocks, epsilon, profile, mode=mode)
    assert result.to_json_dict() == expected.to_json_dict()
    assert (result.probe_instances, result.probe_ext_instances) == (
        expected.probe_instances, expected.probe_ext_instances)
