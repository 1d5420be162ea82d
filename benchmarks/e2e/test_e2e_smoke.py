"""Smoke test of the benchmark itself, at ``--smoke`` sizes.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1).
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def printed():
    """{workload: {metric: value}} parsed from one traced smoke run."""
    proc = _run("-m", "benchmarks.e2e", "--smoke", "--runs", "1",
                "--traced")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    out, current = {}, None
    for line in proc.stdout.splitlines():
        head = re.match(r"^== (\S+)", line)
        row = re.match(r"^  (\S+)\s+(-?[0-9][0-9.e+-]*) ", line)
        if head:
            current = out.setdefault(head.group(1), {})
        elif row and current is not None:
            current[row.group(1)] = float(row.group(2))
    return out


def test_names_match_benchmark_json(spec, printed):
    assert list(printed) == [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for name in [w["name"] for w in spec["workloads"]] + sorted(
            e2e | layer):
        assert NAME.match(name), name
    assert "setup_s" in e2e
    for workload, metrics in printed.items():
        names = set(metrics)
        assert names <= e2e | layer | {"failed_frac"}, \
            (workload, names - e2e - layer)
        # Every per-layer metric is printed; end-to-end metrics only
        # where they apply, but the four host clocks always.
        assert layer <= names, (workload, layer - names)
        assert {"wall_s", "cpu_s", "peak_rss_mb", "setup_s",
                "sim_runtime_s"} <= names
        assert metrics["failed_frac"] == 0.0, workload


def test_layer_self_times_sum_to_traced_wall(spec, printed):
    for workload in printed:
        with open(os.path.join(HERE, "results",
                               f"{workload}.spans.json")) as fh:
            doc = json.load(fh)
        assert set(doc["self_s"]) == set(doc["layers"])
        total = sum(doc["self_s"].values())
        assert abs(total - doc["wall_s"]) <= 0.02 * doc["wall_s"]
        assert doc["unmatched_returns"] == 0
        spans = doc["spans"]
        n = doc["kept_spans"]
        assert n > 0 and all(len(col) == n for col in spans.values())
        for i, parent in enumerate(spans["parent"]):
            assert -1 <= parent < i
            if parent >= 0:
                assert spans["start"][parent] <= spans["start"][i]
                assert spans["end"][i] <= spans["end"][parent] + 1e-6
                assert spans["layer"][parent] != spans["layer"][i]


def test_driver_contract(spec):
    """The BENCHMARK.json command prints exactly the contract's JSON."""
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(*spec["command"][1:], "--workload", "grayscott_ckpt",
                    "--seed", "1", "--seconds", "1", "--trace",
                    str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0
        assert doc["attempted"] >= 1
        assert list(doc["metrics"]) == [m["name"] for m in spec[group]]
        units = {m["name"]: m["unit"] for m in spec[group]}
        for name, entry in doc["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[name]
            if group == "end_to_end":
                assert entry["value"] > 0, name


def test_results_do_not_depend_on_the_checkout_path(printed, tmp_path):
    """A copy of the checkout at another path prints the same simulated
    metrics and counts (placement hashes never see the path)."""
    import shutil
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(
                        "__pycache__", "work", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--runs",
         "1", "--traced", "--workload", "kmeans_scan"],
        cwd=tmp_path, env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0, proc.stderr
    host = re.compile(r"(^|\.)(wall_s|cpu_s|peak_rss_mb|setup_s|"
                      r"host_\w+|assign_host_s|events_per_wall_s|"
                      r"\w+_overhead_pct)$")
    compared = 0
    for line in proc.stdout.splitlines():
        row = re.match(r"^  (\S+)\s+(-?[0-9][0-9.e+-]*) ", line)
        if row and not host.search(row.group(1)):
            assert float(row.group(2)) == \
                printed["kmeans_scan"][row.group(1)], row.group(1)
            compared += 1
    assert compared > 50
