"""scripts/bench.py at a tiny size: it must run against the library as it
stands and write a complete BENCH_<label>.json."""

import json
import os
import subprocess
import sys

import pytest

from branchnet.accounting import count_flops
from branchnet.graph import NODE_KINDS, ArchConfig, build_trunk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_writes_every_conv_and_batchnorm_row(tmp_path):
    proc = subprocess.run(
        [sys.executable, "scripts/bench.py", "--label", "tiny", "--batch", "2",
         "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
    with open(tmp_path / "BENCH_tiny.json") as f:
        bench = json.load(f)
    assert bench["label"] == "tiny" and bench["batch"] == 2
    assert bench["reps"] == 7 and bench["gemm_size"] == 1024
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
    step = bench["train_step"]
    assert step["steps"] == 40 and 0 < step["min_ms"] <= step["median_ms"]
    grid = bench["grid"]
    assert (grid["layers"], grid["tasks"], grid["steps"]) == (6, 2, 20)
    assert (grid["train_samples"], grid["val_samples"]) == (64, 16)
    assert len(grid["calls_s"]) == 3 and min(grid["calls_s"]) > 0
    assert grid["median_s"] == sorted(grid["calls_s"])[1]
