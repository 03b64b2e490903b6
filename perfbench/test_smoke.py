"""Smoke test of the benchmark: tiny workloads emit every declared metric.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "H1_SWEEP_BOUNDS", {"F_2": 2, "S(2,1,0)": 1})
    monkeypatch.setattr(workloads, "TRIPLES_SCAN_BOUND", 2)
    monkeypatch.setattr(workloads, "PIPELINE_FANS", ("F_2", "S(2,1,0)"))
    monkeypatch.setattr(workloads, "SCROLL_PATHS", ((9, 0, 0),))


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(tiny, capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                   "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    assert set(info["env"]) == {"python", "numpy", "nproc", "have_numba"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    # tracing is undone after the run
    from toric_deform import cohomology, kernels

    assert cohomology.matrix_rank is kernels.matrix_rank
    assert not hasattr(kernels.matrix_rank, "__wrapped__")


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "h1-sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
