"""Toy-scale tests of the benchmark itself.

Run from the repository root (they are not part of the tier-1 suite)::

    python -m pytest recbench/test_recbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def toy_run(workload, trace, out, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "recbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--toy", "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(
    workload, trace, tmp_path
):
    proc, result = toy_run(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        if not trace:
            assert emitted["value"] != 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest_inside_their_parents(workload, tmp_path):
    proc, _ = toy_run(workload, 1, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (path,) = tmp_path.glob("*.spans.jsonl")
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {span["id"]: span for span in spans}
    names = {span["name"] for span in spans}
    assert {"bench.setup", "bench.round"} <= names
    children = 0
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] < 0:
            assert span["name"].startswith("bench.")
            continue
        parent = by_id[span["parent"]]
        assert parent["start_ns"] <= span["start_ns"]
        assert span["end_ns"] <= parent["end_ns"]
        children += 1
    assert children > 0


def test_a_dropped_request_fails_the_run(monkeypatch, tmp_path, capsys):
    run.load_library()
    from repro.serving import LookupServer

    serve = LookupServer.serve_arenas

    def dropping(self, arenas, *args, **kwargs):
        def first_request_lost():
            stream = iter(arenas)
            head = next(stream)
            yield head.slice(1, head.num_requests)
            yield from stream

        return serve(self, first_request_lost(), *args, **kwargs)

    monkeypatch.setattr(LookupServer, "serve_arenas", dropping)
    code = run.main([
        "--workload", "serve_replay", "--seed", "3", "--seconds", "0.2",
        "--trace", "0", "--toy", "--out", str(tmp_path),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_a_checkout_without_the_library_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "recbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc, _ = toy_run("serve_replay", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
