#!/usr/bin/env python3
"""Per-node and end-to-end bench for the desk trunk; writes BENCH_<label>.json.

Run from the root of a branchnet checkout:

    python scripts/bench.py --label mytree

It records:
  - the machine: CPU, core count, Python, numpy and BLAS versions, the BLAS
    thread count, and the single-GEMM ceiling (best of several float32
    n^3 matrix products);
  - under `perfbench`, one untraced perfbench/run.py run of each workload
    BENCHMARK.json names: the desk train step (trunk-train op_ms_p50), the
    grid-plus-probe pass (branch-study) and the batch-1 request
    (multihead-serve op_ms_p50, which that run calls predict_ms_p50);
  - every node of the desk trunk (ArchConfig.desk()) whose kind has a
    backward: the median forward and backward ms of its calls inside STEPS
    one-step train() calls at the batch, each on its own seeded minibatch,
    beside accounting.py's MACs for the batch and the GMAC/s they imply
    where the kind has MACs; and the same summed per kind. The engine calls
    timed copies of the graph.NODE_KINDS records (timed_kinds) on train()'s
    own activations, saved contexts and `need` tuples;
  - under `study`, the seconds one run_desk_study into a temporary
    directory records of its phases (StudyResult.seconds): its trunk's
    train and evaluate_accuracy calls, branch_grid, invariance_probe, and
    the whole run. The tiny size shortens the study to STUDY_TINY's trunk
    and fine-tune budgets;
  - under `bundle`, a serving bundle of the ACCEPTANCE 05 head layout
    (perfbench's head_model: heads at conv19, conv22, fc and fc, copied
    warm) over the canonical trunk, or over the desk trunk at the tiny
    size: the bytes of each file save_bundle writes, the median seconds of
    BUNDLE_REPS save_bundle and load_bundle calls, and the peak tracemalloc
    sees during one more load_bundle;
  - under `serve`, SERVE_REQUESTS seeded batch-1 predict_all requests to
    the model that last load_bundle read: the median ms of a request; the
    forward ms per request of each node kind, and of each node under the
    graph that ran it (the trunk, or a head's suffix from its branch
    point), from timed_kinds around real predict_all calls; and the peak
    tracemalloc sees during one more request;
  - under `reference_ms`, for each of the blocks above that this script
    times itself (`steps`, the train-step rows under `nodes` and `kinds`;
    `study`; `bundle`; `serve`), perfbench's settled reference timing
    (harness.Reference().settled()) in ms, taken just before and just
    after the block.

Compare two files only when both were measured on one host. The machine
block says which host that was. A host's speed drifts between runs, so
scale a block's ms by its reference ms before comparing it with the same
block of another file.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from branchnet import experiments, multihead  # noqa: E402
from branchnet.accounting import count_flops  # noqa: E402
from branchnet.engine import forward_pass, infer  # noqa: E402
from branchnet.graph import NODE_KINDS, ArchConfig, build_trunk, head  # noqa: E402
from branchnet.multihead import load_bundle, predict_all, save_bundle  # noqa: E402
from branchnet.train import Dataset, TrainConfig, init_params, train  # noqa: E402
from harness import (Reference, code_digest, fingerprint,  # noqa: E402
                     gemm_ceiling_gmacs)
from workloads import head_model  # noqa: E402

SEED = 1501  # weights, inputs and labels of the steps, and perfbench's seed
STEPS = 40  # timed train steps
GEMM_SIZE = 1024  # n of the n^3 float32 GEMM ceiling
SIZES = {"full": (32, ["--seconds", "15"]),
         "tiny": (2, ["--size", "tiny", "--seconds", "1"])}
STUDY_TINY = {"TRUNK_MINIBATCHES": 2, "FINETUNE_MINIBATCHES": 1}
BUNDLE_REPS = 5  # timed save_bundle and load_bundle calls
SERVE_REQUESTS = 50  # timed predict_all requests, each of one sample
MiB = 2 ** 20


def perfbench(workload, size_args):
    """Attempted and failed counts and every metric of one untraced
    perfbench run of the workload. A run that exits non-zero or fails an
    operation ends the bench, naming the workload, before any file is
    written."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "0", *size_args],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: perfbench {workload} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-2000:]}")
    details = proc.stdout.split("details in ")[-1].splitlines()[0]
    with open(os.path.join(ROOT, details)) as f:  # the run's record
        record = json.load(f)
    counts = {key: record["result"][key] for key in ("attempted", "failed")}
    if counts["failed"]:
        sys.exit(f"error: perfbench {workload} failed {counts['failed']} of "
                 f"{counts['attempted']} operations")
    return {**counts, "metrics": record["metrics"]}


@contextlib.contextmanager
def timed_kinds(*graphs, key=lambda node: node.name):
    """Swaps each graph.NODE_KINDS record for a copy that times every call,
    found by the id of the attrs dict the engine passes, and puts the
    originals back on exit, also on an error. Yields (seconds, need): (node,
    "fwd" or "bwd") -> seconds of each call; node -> its backward's need.
    Each call of a node of the graphs enters these under key(node), its
    name unless key says otherwise; key is called as each call ends."""
    nodes = {id(node.attrs): node for graph in graphs for node in graph.nodes}
    seconds, need = {}, {}

    def timed(fn, direction):
        def call(a, *rest):
            t0 = time.perf_counter()
            out = fn(a, *rest)
            dt = time.perf_counter() - t0
            name = key(nodes[id(a)])
            seconds.setdefault((name, direction), []).append(dt)
            if direction == "bwd":
                need[name] = rest[-1]
            return out
        return call

    original = dict(NODE_KINDS)
    try:
        for name, kind in original.items():
            NODE_KINDS[name] = replace(
                kind, forward=timed(kind.forward, "fwd"),
                backward=kind.backward and timed(kind.backward, "bwd"))
        yield seconds, need
    finally:
        NODE_KINDS.update(original)


def study_times(budgets):
    """StudyResult.seconds of one run_desk_study into a temporary directory,
    with the experiments module's budgets named in budgets set for the run
    (none at full size: patch.multiple refuses an empty set)."""
    patched = (mock.patch.multiple(experiments, **budgets) if budgets
               else contextlib.nullcontext())
    with tempfile.TemporaryDirectory() as out, patched:
        return experiments.run_desk_study(out).seconds


def timed_steps(graph, batch):
    """timed_kinds' (seconds, need) over STEPS one-step train() calls."""
    cfg = TrainConfig.desk(batch_size=batch, seed=SEED, max_minibatches=1)
    store = init_params(graph, cfg)
    rng = np.random.default_rng(SEED)
    shape = (4 * batch,) + tuple(graph.input_shape)
    classes = graph.node(head(graph)[1]).attrs["out"]
    data = Dataset(rng.standard_normal(shape).astype(np.float32),
                   rng.integers(0, classes, size=shape[0]))
    with timed_kinds(graph) as timings:
        for step in range(STEPS):
            train(graph, store, data, replace(cfg, seed=SEED + step))
    return timings


def step_rows(graph, seconds, need, batch):
    """One row per node whose kind has a backward: median fwd/bwd ms of its
    calls, and MACs and GMAC/s where the kind has MACs."""
    macs = count_flops(graph).per_node_macs
    rows = []
    for node in graph.nodes:
        if NODE_KINDS[node.kind].backward is None:
            continue
        row = {"node": node.name, "kind": node.kind}
        for d in ("fwd", "bwd"):
            row[f"{d}_ms"] = float(np.median(seconds[node.name, d])) * 1e3
        if node.name in macs:
            row["fwd_macs"] = macs[node.name] * batch
            row["bwd_macs"] = row["fwd_macs"] * (1 + need[node.name][0])
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


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bundle_io(arch):
    """(the model the last load_bundle read, the bundle block): files,
    bytes and timings of the ACCEPTANCE 05 layout over arch's trunk, its
    batchnorms counted by one train-mode pass over two seeded inputs."""
    graph = build_trunk(arch)
    store = init_params(graph, TrainConfig(seed=SEED))
    x = np.random.default_rng(SEED).standard_normal(
        (2,) + tuple(graph.input_shape)).astype(np.float32)
    store.running.update(forward_pass(graph, store, x, mode="train")[1])
    model = head_model(graph, store, SEED)
    save_s, load_s = [], []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(BUNDLE_REPS):
            t0 = time.perf_counter()
            save_bundle(out, model)
            save_s.append(time.perf_counter() - t0)
        for _ in range(BUNDLE_REPS):
            t0 = time.perf_counter()
            load_bundle(out)
            load_s.append(time.perf_counter() - t0)
        loaded, peak = traced_peak(load_bundle, out)
        files = {name: os.path.getsize(os.path.join(out, name))
                 for name in sorted(os.listdir(out))}
    return loaded, {
        "input_shape": list(graph.input_shape),
        "heads": [[h.spec.task, h.spec.branch_layer] for h in model.heads],
        "reps": BUNDLE_REPS,
        "file_bytes": files,
        "total_mib": sum(files.values()) / MiB,
        "save_s": float(np.median(save_s)),
        "load_s": float(np.median(load_s)),
        "load_peak_mib": peak / MiB,
    }


def serve_times(model):
    """The serve block: per-request wall ms of SERVE_REQUESTS seeded
    batch-1 predict_all calls; the forward ms per request of each node
    kind, and of each node under the graph that ran it ("trunk" or the
    head's task), over as many more calls; and one more call's traced
    peak."""
    rng = np.random.default_rng(SEED)
    shape = (1,) + tuple(model.trunk_graph.input_shape)
    requests = [rng.standard_normal(shape).astype(np.float32)
                for _ in range(SERVE_REQUESTS + 1)]
    predict_all(model, requests[-1])  # warm
    wall = []
    for x in requests[:-1]:
        t0 = time.perf_counter()
        predict_all(model, x)
        wall.append(time.perf_counter() - t0)
    # a head graph holds the trunk's node records, so the graph that runs
    # a node is told by the infer call running it
    labels = {id(model.trunk_graph): "trunk",
              **{id(h.graph): h.spec.task for h in model.heads}}
    running = [None]

    def labelled(graph, *rest):
        running[0] = labels[id(graph)]
        return infer(graph, *rest)

    graphs = [model.trunk_graph] + [h.graph for h in model.heads]
    with mock.patch.object(multihead, "infer", labelled), timed_kinds(
            *graphs, key=lambda node: (running[0], node.name, node.kind)
    ) as (seconds, _):
        for x in requests[:-1]:
            predict_all(model, x)
    _, peak = traced_peak(predict_all, model, requests[-1])
    per_request = {key: sum(calls) / SERVE_REQUESTS * 1e3
                   for (key, _), calls in seconds.items()}
    kinds, nodes = {}, {}
    for (graph, name, kind), ms in per_request.items():
        kinds[kind] = kinds.get(kind, 0.0) + ms
        nodes.setdefault(graph, {})[name] = ms
    return {
        "requests": SERVE_REQUESTS,
        "request_ms_p50": float(np.median(wall)) * 1e3,
        "kind_fwd_ms": dict(sorted(kinds.items())),
        "node_fwd_ms": nodes,
        "peak_mib": peak / MiB,
    }


def run(args):
    batch, size_args = SIZES[args.size]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    runs = {w: perfbench(w, size_args) for w in workloads}
    ref, reference = Reference(), {}

    def referenced(block, fn, *fn_args):
        """fn(*fn_args), its block's reference ms taken on either side."""
        before = ref.settled() * 1e3
        out = fn(*fn_args)
        reference[block] = [before, ref.settled() * 1e3]
        return out

    graph = build_trunk(ArchConfig.desk())
    rows = step_rows(graph, *referenced("steps", timed_steps, graph, batch),
                     batch)
    study = referenced("study", study_times,
                       STUDY_TINY if args.size == "tiny" else {})
    model, bundle = referenced("bundle", bundle_io, ArchConfig.desk()
                               if args.size == "tiny" else ArchConfig())
    serve = referenced("serve", serve_times, model)
    return {
        "label": args.label,
        "code_digest": code_digest(os.path.join(ROOT, "src"))[:16],
        "machine": fingerprint(gemm_ceiling_gmacs(GEMM_SIZE)),
        "gemm_size": GEMM_SIZE,
        "size": args.size,
        "batch": batch,
        "steps": STEPS,
        "kinds": kind_totals(rows),
        "nodes": rows,
        "study": study,
        "bundle": bundle,
        "serve": serve,
        "reference_ms": reference,
        "perfbench": runs,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True,
                   help="names the output file BENCH_<label>.json")
    p.add_argument("--out-dir", default=os.path.join(ROOT, "bench"))
    p.add_argument("--size", choices=SIZES, default="full",
                   help="full: batch 32 and 15-s perfbench runs; tiny: "
                        "batch 2 and perfbench's tiny size for 1 s")
    args = p.parse_args(argv)
    if os.path.basename(args.label) != args.label or args.label in ("", ".", ".."):
        p.error(f"--label {args.label!r} must be a plain file-name part")
    result = run(args)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {path}: " + "; ".join(
        f"{w} op_ms_p50 {r['metrics']['op_ms_p50']:.1f} ms"
        for w, r in result["perfbench"].items())
        + f"; desk study {result['study']['total_s']:.1f} s"
        + f"; bundle {result['bundle']['total_mib']:.1f} MiB, load "
          f"{result['bundle']['load_s']:.2f} s"
        + f"; predict_all {result['serve']['request_ms_p50']:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
