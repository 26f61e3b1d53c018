"""Smoke-size checks of the benchmark: metrics, generator, correctness gate.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run  # noqa: E402
import structural  # noqa: E402
from parsedisamb import load_corpus, load_pair_counts  # noqa: E402

SMOKE_SIZES = {
    "train-tol": {"sentences": 200, "features": 8},
    "structural-lex": {"sentences": 40, "pair_draws": 2000},
}


def smoke_workload(name):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload,
                               sizes={**workload.sizes, **SMOKE_SIZES[name]})


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def smoke_run(request, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp(request.param))
    result = run.run_workload(smoke_workload(request.param), seed=3,
                              seconds=0, trace=True, run_dir=run_dir)
    return request.param, run_dir, result


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_every_metric_appears_with_its_unit(smoke_run):
    _, _, result = smoke_run
    assert result["gate"].failures == []
    spec = _spec()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        summary = run.summarize(result, trace)
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        assert {name: entry["unit"] for name, entry in
                summary["metrics"].items()} == expected
        for entry in summary["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


def test_gate_fails_on_a_decreasing_likelihood(smoke_run):
    name, run_dir, _ = smoke_run
    out_dir = os.path.join(run_dir, "rep0")
    trace_path = os.path.join(out_dir, "train", "trace.jsonl")
    with open(trace_path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    records.append({"iter": len(records), "L": records[-1]["L"] - 1e-3,
                    "max_gamma": 0.0})
    with open(trace_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    assert not run.likelihood_non_decreasing(trace_path)
    gate = run.Gate()
    run.check_run(gate, run.WORKLOADS[name], out_dir, "converged = True")
    assert any("L decreases" in failure for failure in gate.failures)


def test_structural_generator_is_deterministic_per_seed(tmp_path):
    sizes = {**run.WORKLOADS["structural-lex"].sizes,
             "sentences": 30, "pair_draws": 1000}

    def written(seed, where):
        paths = structural.write_inputs(seed, str(tmp_path / where), sizes)
        contents = {}
        for name, path in paths.items():
            with open(path, "rb") as handle:
                contents[name] = handle.read()
        return paths, contents

    paths, first = written(5, "a")
    _, again = written(5, "b")
    _, other = written(6, "c")
    assert first == again
    assert first["train"] != other["train"]
    assert first["pairs"] != other["pairs"]

    train = load_corpus(paths["train"])
    assert all(p.has_structure and p.relations for e in train for p in e.parses)
    assert all(8 <= len(e.tokens) <= 16 and 2 <= len(e.parses) <= 8
               for e in train)
    assert len(load_pair_counts(paths["pairs"])) > 0
