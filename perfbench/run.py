"""Command-line entry point of the benchmark; see harness.py.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import main  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    sys.exit(main())
