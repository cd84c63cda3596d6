"""Self-tests of the benchmark: run from the repository root with
`python3 -m pytest perfbench/tests`."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
# the workloads find the golden files relative to the checkout root
os.chdir(ROOT)
