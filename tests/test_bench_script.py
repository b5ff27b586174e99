"""scripts/bench.py at its tiny size: it must run against the library and
the benchmark as they stand and write a complete BENCH_<label>.json, its
bundle block and reference timings included, and leave graph.NODE_KINDS
and the experiments module's budgets as it found them."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from branchnet import experiments
from branchnet.accounting import count_flops
from branchnet.graph import NODE_KINDS, ArchConfig, build_trunk
from branchnet.train import Dataset, TrainConfig, init_params, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(ROOT, "scripts", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_every_conv_and_batchnorm_row(tmp_path):
    proc = subprocess.run(
        [sys.executable, "scripts/bench.py", "--label", "tiny", "--size", "tiny",
         "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
    with open(tmp_path / "BENCH_tiny.json") as f:
        bench = json.load(f)
    assert bench["label"] == "tiny" and bench["size"] == "tiny"
    assert bench["batch"] == 2 and bench["steps"] == 40
    assert bench["gemm_size"] == 1024
    assert bench["machine"]["gemm_ceiling_gmacs"] > 0
    assert {"cpu", "nproc", "numpy", "blas", "blas_version"} <= bench["machine"].keys()

    graph = build_trunk(ArchConfig.desk())
    macs = count_flops(graph).per_node_macs
    kinds = {n.name: n.kind for n in graph.nodes}
    rows = {r["node"]: r for r in bench["nodes"]}
    # every node whose kind has a backward: all but the softmax head
    assert sorted(rows) == sorted(n for n, k in kinds.items()
                                  if NODE_KINDS[k].backward is not None)
    assert len(rows) == len(graph.nodes) - 1
    for name, row in rows.items():
        assert row["kind"] == kinds[name]
        assert row["fwd_ms"] > 0 and row["bwd_ms"] > 0
        assert ("fwd_macs" in row) == (name in macs)
        if name in macs:
            assert row["fwd_macs"] == 2 * macs[name]
            # the stem's input gradient is not computed
            assert row["bwd_macs"] == row["fwd_macs"] * (1 if name == "conv1" else 2)
            assert row["fwd_gmacs"] > 0 and row["bwd_gmacs"] > 0
    assert set(bench["kinds"]) == {r["kind"] for r in rows.values()}
    for kind, total in bench["kinds"].items():
        mine = [r for r in rows.values() if r["kind"] == kind]
        assert total["nodes"] == len(mine)
        assert total["fwd_ms"] == pytest.approx(sum(r["fwd_ms"] for r in mine))
        assert ("fwd_gmacs" in total) == (kind in ("conv", "fc"))
    assert bench["kinds"]["conv"]["nodes"] == 28
    assert bench["kinds"]["batchnorm"]["nodes"] == 24

    study = bench["study"]
    assert study.keys() == {"trunk_s", "evaluation_s", "grid_s", "probe_s",
                            "total_s"}
    phases = [v for k, v in study.items() if k != "total_s"]
    assert all(v > 0 for v in phases) and study["total_s"] > sum(phases)

    # the ACCEPTANCE 05 layout over the desk trunk at the tiny size
    bundle = bench["bundle"]
    assert bundle["input_shape"] == [1, 56, 56] and bundle["reps"] == 5
    assert bundle["heads"] == [["nuisance", "conv19"], ["stage", "conv22"],
                               ["tags", "fc"], ["binary", "fc"]]
    files = bundle["file_bytes"]
    assert sorted(files) == ["binary.ckpt", "heads.txt", "nuisance.ckpt",
                             "stage.ckpt", "tags.ckpt", "trunk.ckpt"]
    assert bundle["total_mib"] == pytest.approx(sum(files.values()) / 2 ** 20)
    # suffix-only head files: the deepest head is a small share of the trunk
    assert files["nuisance.ckpt"] < files["trunk.ckpt"]
    assert files["binary.ckpt"] < files["trunk.ckpt"] / 100
    assert bundle["save_s"] > 0 and bundle["load_s"] > 0
    assert 0 < bundle["load_peak_mib"] < 2 * bundle["total_mib"]

    # batch-1 predict_all over the bundle just loaded, every kind it runs
    serve = bench["serve"]
    assert serve.keys() == {"requests", "request_ms_p50", "kind_fwd_ms",
                            "node_fwd_ms", "peak_mib"}
    assert serve["requests"] == 50 and serve["request_ms_p50"] > 0
    assert set(serve["kind_fwd_ms"]) == SERVED_KINDS
    assert all(ms > 0 for ms in serve["kind_fwd_ms"].values())
    assert_served_nodes(serve, bundle["heads"])
    # one request's activations, far below the bundle's weights
    assert 0 < serve["peak_mib"] < bundle["total_mib"]

    # perfbench's reference ms on either side of each block timed here
    reference = bench["reference_ms"]
    assert reference.keys() == {"steps", "study", "bundle", "serve"}
    assert all(len(ms) == 2 and min(ms) > 0 for ms in reference.values())

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert set(bench["perfbench"]) == {w["name"] for w in declared["workloads"]}
    for run in bench["perfbench"].values():
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert {m["name"] for m in declared["end_to_end"]} <= run["metrics"].keys()
        assert run["metrics"]["op_ms_p50"] > 0


# the kinds predict_all runs over the ACCEPTANCE 05 layout: the trunk to its
# logits, three softmax heads and one sigmoid head
SERVED_KINDS = {"conv", "batchnorm", "relu", "maxpool", "avgpool", "add", "fc",
                "softmax-head", "sigmoid-head"}


def assert_served_nodes(serve, heads):
    """node_fwd_ms holds, in the order they ran, the trunk's nodes up to its
    logits and each head's nodes from its branch layer to its node "head",
    and each kind's ms is the sum of its nodes' ms (the softmax and sigmoid
    heads' together)."""
    trunk = build_trunk(ArchConfig.desk())
    names = [n.name for n in trunk.nodes[:-1]]
    nodes = serve["node_fwd_ms"]
    assert list(nodes)[0] == "trunk"
    assert sorted(nodes) == sorted(["trunk"] + [task for task, _ in heads])
    assert list(nodes["trunk"]) == names
    for task, branch in heads:
        assert list(nodes[task]) == names[names.index(branch):] + ["head"]
    assert all(ms > 0 for graph in nodes.values() for ms in graph.values())
    kinds = {n.name: n.kind for n in trunk.nodes[:-1]} | {"head": "head"}
    summed = {}
    for graph in nodes.values():
        for name, ms in graph.items():
            summed[kinds[name]] = summed.get(kinds[name], 0.0) + ms
    by_kind = dict(serve["kind_fwd_ms"])
    by_kind["head"] = by_kind.pop("softmax-head") + by_kind.pop("sigmoid-head")
    assert summed == pytest.approx(by_kind)


def test_serve_times_time_every_kind_of_real_requests(monkeypatch):
    bench = load_bench()
    before = dict(NODE_KINDS)
    model, _ = bench.bundle_io(ArchConfig.desk())
    calls = []
    real = bench.predict_all
    monkeypatch.setattr(bench, "predict_all",
                        lambda m, x: calls.append(x.shape) or real(m, x))
    serve = bench.serve_times(model)
    # a warm request, the wall-timed and the kind-timed ones, a traced one
    assert calls == [(1, 1, 56, 56)] * (2 * bench.SERVE_REQUESTS + 2)
    assert set(serve["kind_fwd_ms"]) == SERVED_KINDS
    assert_served_nodes(serve, [(h.spec.task, h.spec.branch_layer)
                                for h in model.heads])
    assert bench.multihead.infer is bench.infer
    assert NODE_KINDS.keys() == before.keys()
    assert all(NODE_KINDS[k] is kind for k, kind in before.items())


def test_timed_steps_leave_the_kind_table_as_they_found_it():
    bench = load_bench()
    before = dict(NODE_KINDS)
    graph = build_trunk(ArchConfig.desk())
    seconds, need = bench.timed_steps(graph, 2)
    # one call per node and direction in each step; no backward of the head
    assert seconds.keys() == {(n.name, d) for n in graph.nodes
                              for d in ("fwd", "bwd")
                              if d == "fwd" or n.name in need}
    assert {len(s) for s in seconds.values()} == {bench.STEPS}
    assert len(need) == len(graph.nodes) - 1 and need["conv1"] == (False,)
    assert NODE_KINDS.keys() == before.keys()
    assert all(NODE_KINDS[k] is kind for k, kind in before.items())

    # a step whose loss is not finite raises inside the timed window
    cfg = TrainConfig.desk(batch_size=2, max_minibatches=1)
    nan = np.full((2,) + tuple(graph.input_shape), np.nan, np.float32)
    with pytest.raises(ValueError, match="non-finite loss"):
        with bench.timed_kinds(graph) as (seconds, _):
            train(graph, init_params(graph, cfg), Dataset(nan, np.zeros(2, int)), cfg)
    assert seconds and NODE_KINDS.keys() == before.keys()
    assert all(NODE_KINDS[k] is kind for k, kind in before.items())


def test_study_times_read_the_study_and_restore_its_budgets(monkeypatch):
    bench = load_bench()
    before = {name: getattr(experiments, name) for name in bench.STUDY_TINY}
    real_load, budgets = experiments.load_tasks, []

    def spied(manifest, tasks, split):
        budgets.append({name: getattr(experiments, name) for name in before})
        return real_load(manifest, tasks, split)

    monkeypatch.setattr(experiments, "load_tasks", spied)
    seconds = bench.study_times(bench.STUDY_TINY)
    assert budgets and all(b == bench.STUDY_TINY for b in budgets)
    assert seconds.keys() == {"trunk_s", "evaluation_s", "grid_s", "probe_s",
                              "total_s"}
    phases = [v for k, v in seconds.items() if k != "total_s"]
    assert all(v > 0 for v in phases) and seconds["total_s"] > sum(phases)
    assert {n: getattr(experiments, n) for n in before} == before

    # a study whose trunk step raises leaves the budgets as it found them
    def poisoned(manifest, tasks, split):
        sets = real_load(manifest, tasks, split)
        for data in sets.values():
            data.inputs[:] = np.nan
        return sets

    monkeypatch.setattr(experiments, "load_tasks", poisoned)
    with pytest.raises(ValueError, match="non-finite loss"):
        bench.study_times(bench.STUDY_TINY)
    assert {n: getattr(experiments, n) for n in before} == before
