"""Smoke tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402

run.import_package()
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    detail, result = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["error_rate"] == 0.0
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "git_commit", "seed"} <= set(detail["env"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_restores(capsys, workload):
    before = spans.package_bindings()
    detail, result = _run(capsys, workload, 1)
    after = spans.package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert detail["observer_errors"] == 0


def test_tracer_rebinds_imported_names_and_restores_them():
    from sentiscore import cli, cnn, evaluate, learner, boxlsq

    originals = (cnn.fit, evaluate.fit, cli.fit, learner.solve, boxlsq.solve)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = (cnn.fit, evaluate.fit, cli.fit, learner.solve, boxlsq.solve)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert (cnn.fit, evaluate.fit, cli.fit, learner.solve, boxlsq.solve) == originals


def test_self_time_on_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.child", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 7.0, 0),
        spans.Span("c", 6.0, 9.0, 0),  # overlaps b: the union counts once
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 3.0])


def test_missing_functions_read_zero():
    metrics = spans.layer_metrics({}, {}, per=2)
    assert {m["name"] for m in SPEC["per_layer"]} - set(metrics) <= {
        "synthetic.generate_corpus.s",
        "trace.overhead_s",
        "trace.overhead_ratio",
    }
    assert all(v["value"] == 0 for v in metrics.values())
