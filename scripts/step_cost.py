#!/usr/bin/env python
"""Run a command and report its host wall seconds and peak RSS.

``python scripts/step_cost.py <label> <command> [args...]`` runs the
command, prints ``<label>: <wall> s wall, <rss> MB peak RSS`` and, in
a GitHub Actions job, appends that line to ``$GITHUB_STEP_SUMMARY``.
It exits with the command's status. Peak RSS is the largest resident
set of any process the command waited for (``RUSAGE_CHILDREN``).
"""

import os
import resource
import subprocess
import sys
import time


def main(argv) -> int:
    label, cmd = argv[0], argv[1:]
    start = time.perf_counter()
    rc = subprocess.call(cmd)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    line = f"{label}: {wall:.1f} s wall, {rss_mb:.0f} MB peak RSS"
    print(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
