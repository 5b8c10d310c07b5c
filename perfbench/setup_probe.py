"""One cold set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints the set-up's figures (its time and the rate of each operation
timed inside it) as one JSON line.  run.py starts it several times to
measure ``setup_s``, so every set-up it reports is cold.
"""

import json
import sys
from pathlib import Path

from run import cold_setup, use_checkout_sources

if __name__ == "__main__":
    use_checkout_sources()
    _, _, figures = cold_setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(json.dumps(figures))
