"""Campaign driver: seed-replay determinism, the ddmin shrinker, the
25-seed acceptance campaign, and the CLI entry point."""

import json
import os

import pytest

from repro.chaos import ChaosPlan, run_campaign, run_case, \
    shrink_faults
from repro.chaos.campaign import measure_horizon, shrink_case, \
    write_replay

PIPELINE = os.path.join(os.path.dirname(__file__), "..", "..",
                        "pipelines", "chaos_kmeans_2n.yaml")

SMALL_KMEANS = """
name: chaos-small
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
  page_size: 65536
  replication_factor: 2
  integrity_checks: true
dataset:
  kind: points
  n: 4000
  k: 4
  seed: 7
  path: points.parquet
app:
  kind: mm_kmeans
  k: 4
  max_iter: 2
"""


@pytest.fixture(scope="module")
def horizon(tmp_path_factory):
    wd = str(tmp_path_factory.mktemp("probe"))
    return measure_horizon(SMALL_KMEANS, workdir=wd)


def test_same_seed_same_trace_hash(tmp_path, horizon):
    wd = str(tmp_path)
    a = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=wd)
    b = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=wd)
    assert a.ok and b.ok
    assert a.trace_hash == b.trace_hash
    assert a.events == b.events and a.events > 0
    assert a.plan.faults == b.plan.faults


def test_same_seed_same_trace_hash_in_any_workdir(tmp_path, horizon):
    """The hash folds in vector names as placed, not the absolute
    dataset URL: one seed in two workdirs of different depth hashes
    alike."""
    deeper = tmp_path / "b" / "deeper"
    deeper.mkdir(parents=True)
    a = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=str(tmp_path))
    b = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=str(deeper))
    assert a.ok and b.ok and a.events == b.events
    assert a.trace_hash == b.trace_hash


def test_different_seed_different_trace_hash(tmp_path, horizon):
    wd = str(tmp_path)
    a = run_case(SMALL_KMEANS, 1, horizon=horizon, workdir=wd)
    b = run_case(SMALL_KMEANS, 2, horizon=horizon, workdir=wd)
    assert a.ok and b.ok
    assert a.trace_hash != b.trace_hash


def test_perturbed_run_still_passes_the_checker(tmp_path, horizon):
    res = run_case(SMALL_KMEANS, 4, horizon=horizon, perturb=True,
                   workdir=str(tmp_path))
    assert res.ok, (res.error, res.violations[:3],
                    res.conservation[:3])


def test_acceptance_campaign_25_seeds_crash_partition_corrupt(
        tmp_path):
    """ISSUE acceptance: >= 25 seeded campaigns over the 2-node KMeans
    pipeline pass the coherence checker with crashes, partitions, and
    corruption enabled. The pipeline declares ``durability: true``, so
    these seeds additionally run under the committed-barrier clause
    (no crash excuse for flushed bytes)."""
    results = run_campaign(PIPELINE, range(25),
                           kinds=("crash", "partition", "corrupt"),
                           workdir=str(tmp_path))
    bad = [r.summary() for r in results if not r.ok]
    assert not bad, bad
    assert all(r.checked_reads > 0 for r in results)
    # The campaign genuinely injected faults, not just clean runs.
    assert sum(r.faults_applied for r in results) > 25


SMALL_KMEANS_DURABLE = SMALL_KMEANS.replace(
    "  integrity_checks: true",
    "  integrity_checks: true\n"
    "  pmem_mb: 32\n"
    "  durability: true\n"
    "  wal_snapshot_every: 4")


def test_durability_campaign_crash_seeds(tmp_path):
    """Crash-kind seeds against the durable deployment: the checker
    runs with the durability clause (crash rewinds of committed bytes
    are NOT excused), so a recovery bug would surface as a
    violation."""
    results = run_campaign(SMALL_KMEANS_DURABLE, range(6),
                           kinds=("crash",), workdir=str(tmp_path))
    bad = [r.summary() for r in results if not r.ok]
    assert not bad, bad
    assert all(r.checked_reads > 0 for r in results)
    assert sum(r.faults_applied for r in results) > 0


GS_CHECKPOINTED = """
name: chaos-gs-ckpt
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  pmem_mb: 32
  nvme_mb: 64
  page_size: 16384
  replication_factor: 2
  integrity_checks: true
  durability: true
  wal_snapshot_every: 4
app:
  kind: mm_gray_scott
  L: 32
  steps: 3
  plotgap: 1
"""


def test_write_behind_campaign_gray_scott_with_checkpoints(tmp_path):
    """Write-behind ships dirty pages before ``tx_end``, which moves
    when the checker sees ``on_commit`` relative to ``on_flush``: a
    write-heavy run (stencil state kept, checkpoints evicted, four
    pages per slab) must stay clean under crash + partition.

    ``intensity=0.6`` draws exactly one crash and one partition per
    seed — the single-failure contract ``replication_factor: 2``
    makes. Even so a crash can land between a stencil page's WRITE and
    its asynchronous replica (the fields are volatile and a step's
    first write has no committed version to roll back to); the system
    then *declares* the loss (``NodeFailedError`` / ``BlobNotFound``)
    and the job aborts — the parent commit does the same on this app
    without checkpoints. That is not a coherence finding, so the
    campaign demands a clean checker on every seed and a clean run to
    completion on at least five."""
    from repro.pipeline import run_pipeline
    wd = str(tmp_path)
    seen = {}

    def count(cluster, variant, row):
        for (name, labels), c in \
                cluster.monitor.metrics.counters.items():
            if name == "pcache_write_behind":
                kind = dict(labels)["kind"]
                seen[kind] = seen.get(kind, 0) + c.value

    run_pipeline(GS_CHECKPOINTED, workdir=wd, on_variant=count)
    assert seen.get("keep", 0) > 0 and seen.get("evict", 0) > 0
    results = run_campaign(GS_CHECKPOINTED, range(10),
                           kinds=("crash", "partition"),
                           intensity=0.6, workdir=wd)
    for r in results:
        assert not r.violations and not r.conservation, r.summary()
        assert r.error is None or r.error.startswith(
            ("NodeFailedError:", "BlobNotFound:")), r.summary()
        assert r.checked_reads > 0 and r.faults_applied >= 1
    assert sum(r.ok for r in results) >= 5, \
        [r.summary() for r in results if not r.ok]
    assert {f.kind for r in results for f in r.plan.faults} \
        == {"crash", "partition"}


def test_durability_campaign_checks_committed_writes(tmp_path):
    """Crash-only seeds on a durable deployment that writes: every seed
    commits barriers, so the durability clause (no crash excuse for
    barrier-committed bytes) is exercised, not vacuous. The KMeans
    spec above commits none: it never writes a page.

    A crash between a volatile stencil page's WRITE and its
    asynchronous replica is a declared loss (``NodeFailedError`` /
    ``BlobNotFound``), as in the write-behind campaign above; the
    checker must be clean on every seed all the same."""
    results = run_campaign(GS_CHECKPOINTED, range(10), kinds=("crash",),
                           workdir=str(tmp_path))
    for r in results:
        assert r.barriers is not None and r.barriers > 0, r.summary()
        assert not r.violations and not r.conservation, r.summary()
        assert r.error is None or r.error.startswith(
            ("NodeFailedError:", "BlobNotFound:")), r.summary()
        assert r.checked_reads > 0
    assert sum(r.faults_applied for r in results) > 0
    assert sum(r.ok for r in results) >= 5, \
        [r.summary() for r in results if not r.ok]
    assert "barriers committed" in results[0].summary()


def test_cli_durability_flag(tmp_path, capsys):
    from repro.__main__ import main
    wd = str(tmp_path)
    rc = main(["chaos", PIPELINE, "--durability", "--seeds", "2",
               "--workdir", wd])
    assert rc == 0
    assert "campaign: 2/2 seeds clean" in capsys.readouterr().out
    # A pipeline without durable mode is rejected up front.
    plain = tmp_path / "plain.yaml"
    plain.write_text(SMALL_KMEANS)
    rc = main(["chaos", str(plain), "--durability", "--seeds", "1",
               "--workdir", wd])
    assert rc == 2
    assert "durability: true" in capsys.readouterr().err


def test_shrinker_converges_on_known_two_fault_repro():
    culprits = {2, 7}
    probes = []

    def predicate(indices):
        probes.append(sorted(indices))
        return culprits <= set(indices)

    assert shrink_faults(predicate, 10) == [2, 7]
    # ddmin beats brute force: far fewer probes than 2^10 subsets.
    assert len(probes) < 60


def test_shrinker_single_fault_and_non_failing_set():
    assert shrink_faults(lambda idx: 3 in idx, 8) == [3]
    # A full set that does not fail is returned unchanged.
    assert shrink_faults(lambda idx: False, 4) == [0, 1, 2, 3]
    assert shrink_faults(lambda idx: True, 0) == []
    assert shrink_faults(lambda idx: True, 1) == [0]


def test_shrink_case_runs_subset_plans(tmp_path, horizon):
    """shrink_case wires the ddmin predicate to real subset re-runs;
    with a case that (correctly) passes on every subset, the shrinker
    must conclude the full plan is not reducible."""
    res = run_case(SMALL_KMEANS, 3, horizon=horizon,
                   workdir=str(tmp_path))
    assert res.ok and len(res.plan.faults) >= 2
    minimal, keep = shrink_case(SMALL_KMEANS, res,
                                workdir=str(tmp_path))
    assert keep == list(range(len(res.plan.faults)))
    assert minimal.faults == res.plan.faults


def test_replay_file_roundtrip(tmp_path, horizon):
    res = run_case(SMALL_KMEANS, 6, horizon=horizon,
                   workdir=str(tmp_path))
    path = str(tmp_path / "replay.json")
    write_replay(path, res, minimal=res.plan.subset([0]))
    doc = json.loads(open(path).read())
    assert doc["seed"] == 6 and doc["trace_hash"] == res.trace_hash
    # The replay file doubles as a ChaosPlan: rebuild and re-run.
    plan = ChaosPlan.from_json(path)
    assert plan.faults == res.plan.faults
    again = run_case(SMALL_KMEANS, plan.seed, horizon=plan.horizon,
                     plan=plan, workdir=str(tmp_path))
    assert again.trace_hash == res.trace_hash


def test_cli_chaos_campaign_and_replay(tmp_path, capsys):
    from repro.__main__ import main
    wd = str(tmp_path)
    rc = main(["chaos", PIPELINE, "--seeds", "2",
               "--faults", "crash,corrupt", "--workdir", wd])
    assert rc == 0
    out = capsys.readouterr().out
    assert "campaign: 2/2 seeds clean" in out
    # Replay mode re-runs a persisted plan.
    res = run_case(PIPELINE, 0, horizon=measure_horizon(
        PIPELINE, workdir=wd), workdir=wd)
    replay = str(tmp_path / "r.json")
    res.plan.to_json(replay)
    rc = main(["chaos", PIPELINE, "--workdir", wd,
               "--replay", replay])
    assert rc == 0
    assert "seed 0: ok" in capsys.readouterr().out
