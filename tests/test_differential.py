"""Generated-input checks of the whole-list greedy (`greedy_cuts`, used by the
oracle and `realize_partition`) against the per-element streaming probe and
against exhaustive search."""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from streampart import (
    InfeasibleBoundError,
    opt_bottleneck_binsearch,
    probe_run,
    realize_partition,
)
from streampart.feasibility import greedy_cuts
from helpers import brute_force_optimum

SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)

# short streams rich in zeros; p up to 6 often exceeds the length
weights_strategy = st.lists(st.one_of(st.just(0), st.integers(0, 9)), max_size=8)
blocks_strategy = st.integers(2, 6)
# small bounds, so that single elements often exceed the floored threshold
bound_strategy = st.builds(Fraction, st.integers(0, 30), st.integers(1, 3))


@SETTINGS
@given(weights=weights_strategy, num_blocks=blocks_strategy, bound=bound_strategy)
def test_whole_list_greedy_matches_streaming_probe(weights, num_blocks, bound):
    streamed = probe_run(weights, bound, num_blocks)
    threshold = bound.numerator // bound.denominator
    cuts = greedy_cuts(list(accumulate(weights, initial=0)), threshold, num_blocks)
    try:
        realized = realize_partition(weights, num_blocks, bound)
    except InfeasibleBoundError:
        realized = None
    if streamed.success:
        assert realized == streamed.separators
    else:
        assert realized is None
        assert cuts is streamed.failure


@SETTINGS
@given(weights=weights_strategy, num_blocks=blocks_strategy)
def test_binsearch_oracle_matches_brute_force(weights, num_blocks):
    optimum = opt_bottleneck_binsearch(weights, num_blocks).optimum
    assert optimum == brute_force_optimum(weights, num_blocks)
    assert probe_run(weights, optimum, num_blocks).success
    if optimum > 0:
        assert not probe_run(weights, optimum - 1, num_blocks).success
