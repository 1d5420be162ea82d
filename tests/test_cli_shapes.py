"""Verb x spec-shape matrix of ``python -m repro``: every verb that
runs something takes a pipeline and a colocation spec alike, and a
spec that is malformed — or of a shape the verb does not run — is one
``error:`` line and exit status 2, never a traceback."""

import pytest

from repro.__main__ import main

CLUSTER = """cluster:
  n_nodes: 2
  procs_per_node: 1
  dram_mb: 8
  nvme_mb: 16
"""
APP = """app:
  kind: mm_gray_scott
  L: 8
  steps: 1
"""
PIPELINE = "name: tiny-pipeline\n" + CLUSTER + APP
COLOCATION = ("name: tiny-campaign\n" + CLUSTER + "jobs:\n  - name: gs\n    "
              + APP.replace("\n  ", "\n      ").rstrip() + "\n    procs: 2\n")
SLOS = """slos:
  - name: no-crash
    objective: availability
    bad_metric: chaos.crashes
    good_metric: rt.tasks
"""

MALFORMED = {
    "unknown-kind": PIPELINE.replace("mm_gray_scott", "nope"),
    "unknown-job-kind": COLOCATION.replace("mm_gray_scott", "nope"),
    "non-tenant-kind": COLOCATION.replace("mm_gray_scott", "mm_serving"),
    "bad-sweep": PIPELINE + "sweep:\n  - key: app.L\n",
    "empty-sweep-axis": PIPELINE + "sweep:\n  - key: app.L\n    values: []\n",
    "no-app-no-jobs": "name: nothing\n" + CLUSTER,
    "no-jobs-listed": "name: nothing\n" + CLUSTER + "jobs: []\n",
    "removed-tenancy-knob": COLOCATION + "tenancy:\n  enabled: false\n",
    "not-yaml": "app: [unclosed\n  nope",
}

VERBS = {
    "run": [], "trace": [], "report": ["--json"], "colocate": [],
    "top": ["--json"], "slo": ["--slos", "slos.yaml"],
    "chaos": ["--seeds", "1", "--faults", "delay"],
}


def _invoke(verb, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.yaml").write_text(text)
    (tmp_path / "slos.yaml").write_text(SLOS)
    rc = main([verb, "spec.yaml", "--workdir", "wd"] + VERBS[verb])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("shape", ["pipeline", "colocation"])
def test_verb_runs_either_shape(verb, shape, tmp_path, monkeypatch,
                                capsys):
    text = PIPELINE if shape == "pipeline" else COLOCATION
    rc, io = _invoke(verb, text, tmp_path, monkeypatch, capsys)
    if (verb, shape) == ("chaos", "colocation"):
        assert rc == 2
        assert io.err.startswith("error: chaos campaigns run pipelines")
        assert io.err.count("\n") == 1
        return
    assert rc == 0, io.err
    assert "Traceback" not in io.err
    assert io.out.strip()
    if verb in ("run", "colocate", "trace"):
        # One printer: the rows of whichever shape the target has.
        assert ("runtime_s" if shape == "pipeline" else "turnaround_s") \
            in io.out
    if verb == "trace":
        assert (tmp_path / "wd" / "trace.json").exists()
    if verb == "report":
        import json
        doc = json.loads(io.out)
        assert sum(doc["critical_path"]["by_category"].values()) \
            == pytest.approx(doc["makespan"], rel=0.01)


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_is_one_error_line(verb, case, tmp_path,
                                          monkeypatch, capsys):
    rc, io = _invoke(verb, MALFORMED[case], tmp_path, monkeypatch, capsys)
    assert rc == 2
    assert io.err.startswith("error: ") and io.err.count("\n") == 1, io.err
    assert not io.out
    assert not (tmp_path / "wd").exists() \
        or not list((tmp_path / "wd").iterdir())
