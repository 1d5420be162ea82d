"""``scripts/colocate_family.py``: the name variants it runs and the
summary and win counts it reports (the runs themselves take a minute
and are CI's colocation-smoke step, not tier-1)."""

import importlib.util
import os
import re

_SPEC = importlib.util.spec_from_file_location(
    "colocate_family",
    os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                 "colocate_family.py"))
fam = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fam)


def test_a_variant_renames_every_dataset_and_nothing_else():
    with open(fam.SPEC, encoding="utf-8") as fh:
        text = fh.read()
    paths = re.findall(r"\bpath: (\S+)\.parquet", text)
    assert len(paths) == 7
    assert fam.variant_spec(text, 0) == text
    v3 = fam.variant_spec(text, 3)
    assert re.findall(r"\bpath: (\S+)\.parquet", v3) \
        == [f"{p}_v3" for p in paths]
    assert v3.replace("_v3.parquet", ".parquet") == text


def row(i, jobs, p99):
    return {"variant": i, "sim_jobs_per_s": jobs,
            "sim_victim_p99_ms": p99, "sim_runtime_s": 10.0 / jobs,
            "sim_peak_dram_node_mb": 8.0, "failed": []}


def test_summary_and_wins_against_a_baseline():
    base = [row(0, 10.0, 60.0), row(1, 12.0, 50.0), row(2, 11.0, 70.0)]
    rows = [row(0, 15.0, 40.0), row(1, 11.0, 50.0), row(2, 11.0, 80.0)]
    s = fam.summary(rows)["sim_jobs_per_s"]
    assert (s["median"], s["min"], s["max"]) == (11.0, 11.0, 15.0)
    w = fam.wins(rows, base)
    assert w["sim_jobs_per_s"] == {"better": 1, "worse": 1, "equal": 1}
    assert w["sim_victim_p99_ms"] == {"better": 1, "worse": 1,
                                      "equal": 1}
    assert w["sim_peak_dram_node_mb"]["equal"] == 3
    report = fam.table(rows, base)
    assert "| v0 | 15.000 | 40.00 |" in report
    assert "jobs/s median 11.000, min 11.000, max 15.000" in report
    assert "sim_jobs_per_s 1/1/1" in report
