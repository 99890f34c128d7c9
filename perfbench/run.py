"""Run one workload of the end-to-end, per-layer query benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense_grid --seed 1 --seconds 10 --trace 0

Workloads: ``dense_grid``, ``box_browse``, ``sharded_sat``.  The last
stdout line is the JSON result; see ``perfbench/README.md``.
"""

import sys
from pathlib import Path


def main() -> int:
    # The program under test is imported from the checkout's ``src``.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from harness import main as harness_main

    return harness_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
