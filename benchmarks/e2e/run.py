"""The ``BENCHMARK.json`` command: ``python3 benchmarks/e2e/run.py
--workload W --seed S --seconds T --trace 0|1`` from the root of a
checkout. Puts the checkout and its ``src`` on the import path, so no
``PYTHONPATH`` is needed; without ``src/repro`` it exits non-zero and
prints no result."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
