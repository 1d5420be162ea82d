"""Colocation scheduler: determinism, admission control, row schema.

Determinism is the load-bearing property: the scheduler runs inside
the discrete-event simulator, every rng stream is keyed by tenant
name, and the decision log carries rounded floats only — so the same
seed and spec must produce *bit-identical* per-tenant rows and an
identical decision log, run after run.
"""

import pytest

from repro.pipeline import PipelineError, build_cluster
from repro.tenancy import (JobScheduler, JobSpec, load_colocation_spec,
                           run_colocation)

SPEC = """
name: Colocate-Test
cluster:
  n_nodes: 2
  procs_per_node: 1
  dram_mb: 8
  nvme_mb: 64
  seed: 11
tenancy:
  realloc: true
jobs:
  - name: kmA
    app:
      kind: mm_kmeans
      k: 4
      max_iter: 2
    dataset:
      kind: points
      n: 3000
      k: 4
      seed: 3
      path: pts_a.parquet
    procs: 2
    dram_quota_mb: 4
    min_dram_mb: 2
  - name: gsB
    app:
      kind: mm_gray_scott
      L: 16
      steps: 2
    procs: 2
    arrival: 0.05
    dram_quota_mb: 4
    min_dram_mb: 2
  - name: antag
    app:
      kind: mm_stream
      passes: 2
    dataset:
      kind: points
      n: 8000
      k: 4
      seed: 5
      path: pts_antag.parquet
    procs: 1
    arrival: 0.1
    dram_quota_mb: 2
    min_dram_mb: 1
"""


def test_same_seed_and_spec_is_bit_identical(tmp_path):
    # The second run reuses the already-materialized datasets (same
    # seed, same bytes).
    r1 = run_colocation(SPEC, workdir=str(tmp_path))
    r2 = run_colocation(SPEC, workdir=str(tmp_path))
    assert r1.rows == r2.rows
    assert r1.decisions == r2.decisions
    assert r1.makespan == r2.makespan
    names = [row["job"] for row in r1.rows]
    assert names == ["kmA", "gsB", "antag"]
    assert all(row["status"] == "ok" for row in r1.rows)


def test_decision_log_is_plain_rounded_dicts(tmp_path):
    res = run_colocation(SPEC, workdir=str(tmp_path))
    assert res.decisions, "campaign must log decisions"
    for entry in res.decisions:
        assert type(entry) is dict
        assert set(entry) >= {"t", "kind"}
        assert entry["kind"] in {"admit", "queue", "reject",
                                 "complete", "crash", "realloc"}
        # Rounded floats only: re-rounding must be the identity.
        for v in entry.values():
            if isinstance(v, float):
                assert v == round(v, 9)
    kinds = [e["kind"] for e in res.decisions]
    assert kinds.count("admit") == 3
    assert kinds.count("complete") == 3


def _cluster(dram_mb=8, seed=11):
    return build_cluster({"n_nodes": 2, "procs_per_node": 1,
                          "dram_mb": dram_mb, "nvme_mb": 64,
                          "seed": seed})


def _gs(name, arrival=0.0, min_dram_mb=0):
    return JobSpec(name=name,
                   app={"kind": "mm_gray_scott", "L": 16, "steps": 1},
                   procs=1, arrival=arrival,
                   min_dram=int(min_dram_mb * 2 ** 20))


def test_admission_rejects_a_job_that_can_never_fit():
    # 2 nodes x 8 MB DRAM = 16 MB capacity; a 1000 MB minimum can
    # never be committed.
    sched = JobScheduler(_cluster(), [_gs("big", min_dram_mb=1000)],
                         realloc=False)
    res = sched.run()
    assert res.rows[0]["status"] == "rejected"
    assert res.decisions[0]["kind"] == "reject"


def test_admission_queues_until_capacity_frees():
    # Two simultaneous jobs each committing 12 MB against 16 MB: the
    # second queues and starts only after the first completes.
    jobs = [_gs("first", min_dram_mb=12),
            _gs("second", min_dram_mb=12)]
    sched = JobScheduler(_cluster(), jobs, realloc=False)
    res = sched.run()
    rows = {r["job"]: r for r in res.rows}
    assert rows["first"]["status"] == "ok"
    assert rows["second"]["status"] == "ok"
    assert rows["second"]["start_s"] >= rows["first"]["finish_s"]
    kinds = [e["kind"] for e in res.decisions]
    assert "queue" in kinds
    # The queued job is admitted exactly once, after a completion.
    q = kinds.index("queue")
    assert "complete" in kinds[q:]


def test_finished_job_returns_its_pcache_to_the_node():
    # A rank that has returned holds no frames: its bytes are off the
    # tenant's ledger and out of the node's DRAM, which then counts
    # nothing but blobs. (Before, every finished tenant kept its last
    # frames reserved until the end of the campaign.)
    cluster = _cluster()
    sched = JobScheduler(cluster, [_gs("first"), _gs("second", 0.01)],
                         realloc=False)
    res = sched.run()
    assert [r["status"] for r in res.rows] == ["ok", "ok"]
    assert res.stats["pcache.bytes_reserved"] > 0
    assert [t.pcache_used for t in sched.qm.tenants.values()] == [0, 0]
    for dmsh in cluster.dmshs:
        dram = dmsh.tiers[0]
        assert dram.used == sum(dram.size_of(k) for k in dram.keys())


def test_duplicate_job_names_rejected():
    with pytest.raises(PipelineError):
        JobScheduler(_cluster(), [_gs("same"), _gs("same")])


def test_spec_loader_requires_jobs():
    with pytest.raises(PipelineError):
        load_colocation_spec("name: NoJobs\n")


def test_row_schema_and_csv_output(tmp_path):
    res = run_colocation(SPEC, workdir=str(tmp_path))
    expect = {"job", "kind", "procs", "status", "arrival_s", "start_s",
              "finish_s", "turnaround_s", "service_s", "task_p99_ms",
              "tasks", "hit_ratio", "dram_quota_mb"}
    for row in res.rows:
        assert set(row) == expect
    assert (tmp_path / "colocate_stats.csv").exists()


ONE_JOB = """
name: One-Job
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 8
  nvme_mb: 64
  seed: 11
jobs:
  - name: solo
    app:
      kind: mm_kmeans
      k: 4
      max_iter: 2
    dataset:
      kind: points
      n: 3000
      k: 4
      seed: 3
      path: pts_solo.parquet
    procs: 1
    dram_quota_mb: 4
    slo:
      objective: hit_ratio
      target: 0.05
"""


def test_one_job_spec_honours_procs_quota_and_slo(tmp_path, capsys):
    """A one-job spec is a campaign like any other: its ``procs``,
    quota and ``slo:`` block mean what they say (the single-tenant
    fork ran it on every rank of the cluster, ignored quotas and left
    ``tasks`` / ``task_p99_ms`` / ``.slo`` blank)."""
    res = run_colocation(ONE_JOB, workdir=str(tmp_path))
    (row,) = res.rows
    assert row["status"] == "ok"
    assert row["procs"] == 1
    assert row["tasks"] > 0 and row["task_p99_ms"] > 0
    assert row["dram_quota_mb"] == 4.0
    assert [e["kind"] for e in res.decisions] == ["admit", "complete"]
    assert [s["name"] for s in res.slo["slos"]] == ["solo-hit_ratio"]

    from repro.__main__ import main
    path = tmp_path / "one.yaml"
    path.write_text(ONE_JOB)
    assert main(["slo", str(path), "--workdir", str(tmp_path)]) == 0
    assert "1/1 SLOs met" in capsys.readouterr().out


def test_unknown_tenancy_key_is_rejected_by_name(tmp_path):
    # `enabled` selected the removed single-tenant path; a leftover
    # must not be swallowed.
    spec = SPEC.replace("realloc: true",
                        "realloc: true\n  enabled: false")
    with pytest.raises(PipelineError, match=r"\['enabled'\]"):
        run_colocation(spec, workdir=str(tmp_path))
    # Fail-fast: the bad spec must not have materialized datasets.
    assert not list(tmp_path.iterdir())


def test_non_tenant_kind_is_refused_before_anything_runs(tmp_path):
    spec = SPEC.replace("kind: mm_stream", "kind: mm_serving")
    with pytest.raises(PipelineError, match="cannot run as a tenant"):
        run_colocation(spec, workdir=str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_colocated_gray_scott_writes_its_checkpoints(tmp_path):
    """``plotgap`` means the same in a job as in a pipeline: every
    tenant's checkpoints reach the PFS under its own name (the tenant
    launcher used to pass no prefix and silently wrote none)."""
    import numpy as np
    from repro.apps.grayscott import GSParams, gs_reference
    job = """
  - name: {name}
    app:
      kind: mm_gray_scott
      L: 16
      steps: 2
      plotgap: 1
    procs: {procs}
    arrival: {arrival}
"""
    spec = ("cluster:\n  n_nodes: 2\n  procs_per_node: 1\n"
            "  dram_mb: 8\n  nvme_mb: 64\njobs:"
            + job.format(name="a", procs=2, arrival=0.0)
            + job.format(name="b", procs=1, arrival=0.001))
    res = run_colocation(spec, workdir=str(tmp_path))
    assert [r["status"] for r in res.rows] == ["ok", "ok"]
    u_ref, _v = gs_reference(16, 2, GSParams())
    for name in "ab":
        last = np.fromfile(tmp_path / f"{name}.gs_ckpt_L16_2.u",
                           dtype=np.float64)
        assert np.array_equal(last, u_ref.ravel()), name
