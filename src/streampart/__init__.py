"""One-pass partitioning of integer weight streams.

The solvers split a stream of n non-negative integers into p contiguous
blocks, minimizing (approximately) the weight of the heaviest block while
reading each element exactly once and keeping only O(p) state per candidate
bound. Exact rational arithmetic is used throughout, so reported bottleneck
values are never optimistic.
"""

from types import ModuleType as _ModuleType

from .bench import (
    BENCH_CSV_HEADER,
    BenchRecord,
    load_config,
    run_bench,
    write_csv,
)
from .core import (
    DeclaredBoundError,
    InfeasibleBoundError,
    InvalidPartitioningError,
    KnowledgeMismatchError,
    StreamStats,
    as_fraction,
    block_weights,
    bottleneck_of,
    ceil_fraction,
    check_partitioning,
    floor_fraction,
    format_weights,
    iter_weights,
    parse_weights,
    validate_partitioning,
)
from .feasibility import (
    PART_MODE,
    PARTB_MODE,
    ProbeFailure,
    ProbeInstance,
    ProbeOutcome,
    probe_run,
)
from .generators import (
    GeneratorSpec,
    gen_constant,
    gen_index_hard,
    gen_spike,
    gen_uniform,
    gen_yz_hard,
)
from .oracle import (
    OracleResult,
    opt_bottleneck_binsearch,
    opt_bottleneck_dp,
    realize_partition,
)
from .probe_ext import (
    ProbeExtInstance,
    ProbeExtResult,
    approx_factor_bound,
    probe_ext_run,
    weight_lower_bound,
)
from .schedulers import (
    EPSILON_GUARANTEE_LIMIT,
    KNOWN_MAX_LENGTH_TAG,
    KNOWN_MAX_TAG,
    KNOWN_TOTAL_TAG,
    UNKNOWN_TAG,
    WARN_EPSILON_RANGE,
    KnowledgeProfile,
    SolveResult,
    dispatch,
    growth_steps,
    solve_known_max,
    solve_known_max_length,
    solve_known_total,
    solve_unknown_part,
    solve_unknown_partb,
)

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
