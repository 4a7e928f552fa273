"""Run one coarsebundle benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
