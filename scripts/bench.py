#!/usr/bin/env python3
"""Kernel and step bench for the desk trunk; writes BENCH_<label>.json.

Run from the root of a branchnet checkout:

    python scripts/bench.py --label mytree

It records:
  - the machine: CPU, core count, Python, numpy and BLAS versions, the BLAS
    thread count, and the single-GEMM ceiling (best of several float32
    n^3 matrix products);
  - every node of the desk trunk (ArchConfig.desk()) whose kind has a
    backward, at --batch (default 32): forward and backward ms, each the
    median of REPS timed calls of its graph.NODE_KINDS forward and
    backward, set beside accounting.py's MACs for the batch and the GMAC/s
    they imply where the kind has MACs; and the same summed per kind. Each
    node runs on the activations of one train-mode forward_pass, as the
    engine runs it in train(): the forward in train mode, the backward with
    the context that pass saved and the engine's `need` tuple, which asks
    for no gradient of the network input;
  - the desk train step: STEPS one-step train() calls at the batch, each on
    its own seeded minibatch, after two untimed warm-up steps; median,
    quartiles and minimum ms;
  - the branch grid at perfbench's branch-study size: GRID_CALLS
    branch_grid calls over every branch point x DESK_TASKS, GRID_STEPS
    fine-tune steps per cell at the batch, on GRID_TRAIN training and
    GRID_VAL held-out samples of random data; seconds of each call and
    their median. It runs on the store the train steps left.

Compare two files only when both were measured on one host. The machine
block says which host that was.
"""

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from branchnet.accounting import count_flops  # noqa: E402
from branchnet.engine import _node_params, forward_pass  # noqa: E402
from branchnet.experiments import DESK_TASKS, branch_grid  # noqa: E402
from branchnet.graph import INPUT_NAME, NODE_KINDS, ArchConfig, build_trunk  # noqa: E402
from branchnet.train import Dataset, TrainConfig, init_params, train  # noqa: E402
from harness import code_digest, fingerprint, gemm_ceiling_gmacs  # noqa: E402

SEED = 1501  # weights, inputs, labels and output gradients
REPS = 7  # timed calls per node and direction (median)
STEPS = 40  # timed train steps
GEMM_SIZE = 1024  # n of the n^3 float32 GEMM ceiling
GRID_CALLS = 3  # timed branch_grid calls
GRID_STEPS = 20  # fine-tune steps per grid cell
GRID_TRAIN, GRID_VAL = 64, 16  # training and held-out samples of the grid


def median_ms(fn):
    """Median wall ms of REPS calls of fn, after one untimed call."""
    fn()
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def node_rows(graph, store, x):
    """One row per node whose kind has a backward, on input batch x: fwd/bwd
    ms, and MACs and GMAC/s where the kind has MACs."""
    macs = count_flops(graph).per_node_macs
    rng = np.random.default_rng(SEED)
    saved = {}
    acts, _ = forward_pass(graph, store, x, mode="train", saved=saved)
    rows = []
    for node in graph.nodes:
        kind = NODE_KINDS[node.kind]
        if kind.backward is None:
            continue
        a, p, ins = node.attrs, _node_params(store, node), [acts[s] for s in node.inputs]
        running, context = store.running.get(node.name), saved.get(node.name)
        gy = rng.standard_normal(acts[node.name].shape).astype(np.float32)
        need = tuple(src != INPUT_NAME for src in node.inputs)
        row = {"node": node.name, "kind": node.kind,
               "input_shape": list(ins[0].shape),
               "fwd_ms": median_ms(lambda: kind.forward(a, p, ins, running, "train")),
               "bwd_ms": median_ms(lambda: kind.backward(a, p, ins, gy, context, need))}
        if node.name in macs:
            row["fwd_macs"] = macs[node.name] * len(x)
            row["bwd_macs"] = row["fwd_macs"] * (1 + need[0])
            for d in ("fwd", "bwd"):
                row[f"{d}_gmacs"] = row[f"{d}_macs"] / row[f"{d}_ms"] / 1e6
        rows.append(row)
    return rows


def kind_totals(rows):
    """Per kind: node count, summed fwd/bwd ms, and GMAC/s where it has MACs."""
    out = {}
    for kind in dict.fromkeys(r["kind"] for r in rows):
        mine = [r for r in rows if r["kind"] == kind]
        out[kind] = {"nodes": len(mine)}
        for d in ("fwd", "bwd"):
            out[kind][f"{d}_ms"] = sum(r[f"{d}_ms"] for r in mine)
            if "fwd_macs" in mine[0]:
                out[kind][f"{d}_gmacs"] = (sum(r[f"{d}_macs"] for r in mine)
                                           / out[kind][f"{d}_ms"] / 1e6)
    return out


def train_steps(graph, store, data, cfg):
    """ms of each of STEPS one-step train() calls, after two warm-ups."""
    times = []
    for step in range(STEPS + 2):
        step_cfg = replace(cfg, seed=cfg.seed + step, max_minibatches=1)
        t0 = time.perf_counter()
        train(graph, store, data, step_cfg)
        if step >= 2:
            times.append((time.perf_counter() - t0) * 1e3)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"steps": STEPS, "median_ms": statistics.median(times),
            "q1_ms": q1, "q3_ms": q3, "min_ms": min(times)}


def grid_calls(graph, store, batch):
    """Seconds of each of GRID_CALLS branch_grid calls, and their median."""
    rng = np.random.default_rng(SEED + 1)

    def split(n):  # one inputs array shared by every task, as load_tasks
        x = rng.standard_normal((n,) + tuple(graph.input_shape)).astype(np.float32)
        return {t.name: Dataset(x, rng.integers(0, t.num_classes, size=n))
                for t in DESK_TASKS}

    train_sets, val_sets = split(GRID_TRAIN), split(GRID_VAL)
    cfg = TrainConfig.desk(batch_size=batch, max_minibatches=GRID_STEPS)
    times = []
    for _ in range(GRID_CALLS):
        t0 = time.perf_counter()
        branch_grid(graph, store, DESK_TASKS, train_sets, val_sets, cfg, SEED)
        times.append(time.perf_counter() - t0)
    return {"layers": len(graph.branch_points), "tasks": len(DESK_TASKS),
            "steps": GRID_STEPS, "train_samples": GRID_TRAIN,
            "val_samples": GRID_VAL, "calls_s": times,
            "median_s": statistics.median(times)}


def run(args):
    graph = build_trunk(ArchConfig.desk())
    cfg = TrainConfig.desk(batch_size=args.batch, seed=SEED)
    store = init_params(graph, cfg)
    rng = np.random.default_rng(SEED)
    shape = (4 * args.batch,) + tuple(graph.input_shape)
    data = Dataset(rng.standard_normal(shape).astype(np.float32),
                   rng.integers(0, graph.node("fc").attrs["out"], size=shape[0]))
    rows = node_rows(graph, store, data.inputs[:args.batch])
    return {
        "label": args.label,
        "code_digest": code_digest(os.path.join(ROOT, "src"))[:16],
        "machine": fingerprint(gemm_ceiling_gmacs(GEMM_SIZE)),
        "gemm_size": GEMM_SIZE,
        "batch": args.batch,
        "reps": REPS,
        "kinds": kind_totals(rows),
        "nodes": rows,
        "train_step": train_steps(graph, store, data, cfg),
        "grid": grid_calls(graph, store, args.batch),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True,
                   help="names the output file BENCH_<label>.json")
    p.add_argument("--out-dir", default=os.path.join(ROOT, "bench"))
    p.add_argument("--batch", type=int, default=32)
    args = p.parse_args(argv)
    if args.batch < 1:
        p.error(f"--batch must be >= 1, got {args.batch}")
    if os.path.basename(args.label) != args.label or args.label in ("", ".", ".."):
        p.error(f"--label {args.label!r} must be a plain file-name part")
    result = run(args)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    k, step = result["kinds"], result["train_step"]
    print(f"wrote {path}: conv fwd {k['conv']['fwd_ms']:.1f} ms, bwd "
          f"{k['conv']['bwd_ms']:.1f} ms; batchnorm fwd "
          f"{k['batchnorm']['fwd_ms']:.1f} ms, bwd {k['batchnorm']['bwd_ms']:.1f} "
          f"ms; train step median {step['median_ms']:.1f} ms; branch grid "
          f"median {result['grid']['median_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
