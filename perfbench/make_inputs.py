"""Write one workload's seeded input files in a fresh process.

    python3 perfbench/make_inputs.py WORKLOAD SEED DIR

The benchmark times this whole process as its set-up: interpreter start,
importing diagsim, generating the Hamiltonians and writing them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import make_inputs  # noqa: E402

if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
