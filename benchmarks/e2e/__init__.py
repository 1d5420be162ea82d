"""End-to-end benchmark: five product-shaped workloads on two clocks.

See ``README.md`` in this directory. Entry points:
``python3 benchmarks/e2e/run.py`` (the ``BENCHMARK.json`` command) and
``PYTHONPATH=src python -m benchmarks.e2e``.
"""
