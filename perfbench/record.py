"""Record the exactness reference that run.py checks every op against.

    python3 -m perfbench.record

For each workload it runs the setup op and the ops of seeds 0..N-1 untimed,
checks each result's guarantees against the harness's own optimum, and
writes to reference.json the pinned instance_count and space_peak_words of
every solver configuration plus a digest of each op's output. Record only
from a commit whose results are trusted: a later op whose output differs
from its digest counts as failed.
"""

from __future__ import annotations

import json
import sys

from .checks import REFERENCE_PATH, check_result, digest
from .harness import OUT_DIR, load_streampart

# op seeds recorded per workload: more than a 10-second run from seed 0 uses
RECORDED_OPS = {"known-m-grid": 150, "unknown-part": 150, "partb-stream": 200,
                "bench-sweep": 10}


def main() -> int:
    load_streampart()
    from .workloads import WORKLOADS  # imports streampart

    OUT_DIR.mkdir(exist_ok=True)
    pins: dict[str, list[int]] = {}
    digests: dict[str, dict[str, str]] = {}
    for name, count in RECORDED_OPS.items():
        workload = WORKLOADS[name]
        digests[name] = {}
        for seed in ["setup", *range(count)]:
            op = (workload.prepare_setup(OUT_DIR) if seed == "setup"
                  else workload.prepare(seed, OUT_DIR))
            outcomes = [call() for call in workload.calls(op)]
            solved, text = workload.solved(op, outcomes)
            for item in solved:
                if item.payload is None:
                    sys.exit(f"{name} op {op.key}: {item.error}")
                counts = [item.payload["instance_count"], item.payload["space_peak_words"]]
                if pins.setdefault(item.case.pin_key, counts) != counts:
                    sys.exit(f"{item.case.pin_key}: counts {counts} vary between ops")
                problems = check_result(item.case, item.payload, item.case.optimum(), pins)
                if problems:
                    sys.exit(f"{name} op {op.key}: {problems}")
            digests[name][op.key] = digest(text)
        print(f"{name}: recorded setup and {count} ops", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fp:
        json.dump({"pins": dict(sorted(pins.items())), "digests": digests}, fp, indent=1)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
