"""Per-layer measurements for the traced run, and the exact counts that
every run records.

Everything here times calls into branchnet's public functions from the
outside. Per-node costs come from replaying each node through `ops.*` on
the activations `engine.forward_pass` returned, so the engine itself runs
unmodified and unhooked. The replay needs its own kind -> op dispatch for
that reason.
"""

import os
import time
from dataclasses import replace

import numpy as np

from branchnet import ops
from branchnet.accounting import compute_shapes, count_flops
from branchnet.common import derive_seed
from branchnet.dataio import load_batch, split_ids
from branchnet.engine import backward_pass, forward_pass
from branchnet.multihead import (combined_flops, load_bundle, predict_all,
                                 save_bundle)
from branchnet.params import (frozen_checksum, parse_checkpoint,
                              save_checkpoint)
from branchnet.train import (Dataset, TrainConfig, evaluate_accuracy, finetune,
                             make_branch, sgd_momentum_step)
from harness import MB, median
from workloads import Phase, head_model, run_study

KINDS = ("conv", "batchnorm", "maxpool", "relu", "add", "avgpool", "fc")
MODULES = ("ops", "engine", "train", "params", "multihead", "experiments",
           "dataio")
# The linear-probe budget of the short study that workloads other than
# branch-study run, so every traced run reports the experiments layer.
SHORT_PROBE_BUDGET = 2


def _param(store, node, name):
    return store.arrays[f"{node.name}/{name}"]


def op_forward(node, store, ins, mode):
    """(ops function name, thunk) for one node's forward."""
    a = node.attrs
    if node.kind == "conv":
        bias = _param(store, node, "b") if a.get("bias") else None
        return "conv2d_forward", lambda: ops.conv2d_forward(
            ins[0], _param(store, node, "w"), bias, a["stride"], a["pad"])
    if node.kind == "batchnorm":
        return "batchnorm", lambda: ops.batchnorm(
            ins[0], _param(store, node, "gamma"), _param(store, node, "beta"),
            running=store.running.get(node.name), mode=mode,
            eps=a.get("eps", ops.BN_EPS))
    if node.kind == "fc":
        return "fully_connected", lambda: ops.fully_connected(
            ins[0], _param(store, node, "w"), _param(store, node, "b"))
    if node.kind == "add":
        return "elementwise_add", lambda: ops.elementwise_add(ins[0], ins[1])
    fn = {"relu": ops.relu, "maxpool": ops.maxpool2x2,
          "avgpool": ops.avgpool_global, "softmax-head": ops.softmax,
          "sigmoid-head": ops.sigmoid}[node.kind]
    return fn.__name__, lambda: fn(ins[0])


def op_backward(node, store, ins, gy):
    """(ops function name, thunk) for one node's backward."""
    a = node.attrs
    if node.kind == "conv":
        bias = _param(store, node, "b") if a.get("bias") else None
        return "conv2d_backward", lambda: ops.conv2d_backward(
            ins[0], _param(store, node, "w"), bias, gy, a["stride"], a["pad"])
    if node.kind == "batchnorm":
        return "batchnorm_backward", lambda: ops.batchnorm_backward(
            ins[0], _param(store, node, "gamma"), _param(store, node, "beta"),
            gy, eps=a.get("eps", ops.BN_EPS))
    if node.kind == "fc":
        return "fully_connected_backward", lambda: ops.fully_connected_backward(
            ins[0], _param(store, node, "w"), gy)
    if node.kind == "add":
        return "elementwise_add_backward", lambda: ops.elementwise_add_backward(gy)
    fn = {"relu": ops.relu_backward, "maxpool": ops.maxpool2x2_backward,
          "avgpool": ops.avgpool_global_backward}[node.kind]
    return fn.__name__, lambda: fn(ins[0], gy)


def _median_ms(tracer, name, thunk, reps, **extra):
    times = []
    for _ in range(reps):
        with tracer.span(f"ops.{name}", **extra):
            t0 = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def replay(graph, store, acts, tracer, reps, mode, train_from=0, end=None,
           backward=True):
    """Median forward (and backward) ms of each node in [0, end), replayed
    through ops.* on recorded activations. Batchnorm nodes before
    train_from run in inference mode, as the engine runs them."""
    rng = np.random.default_rng(0)
    rows = []
    for index, node in enumerate(graph.nodes[:end]):
        ins = [acts[src] for src in node.inputs]
        node_mode = "train" if (mode == "train" and index >= train_from) else "infer"
        name, thunk = op_forward(node, store, ins, node_mode)
        row = {"node": node.name, "kind": node.kind,
               "fwd_ms": _median_ms(tracer, name, thunk, reps, node=node.name)}
        if backward and node.kind in KINDS:
            out = acts[node.name]
            gy = rng.standard_normal(out.shape).astype(out.dtype)
            name, thunk = op_backward(node, store, ins, gy)
            row["bwd_ms"] = _median_ms(tracer, name, thunk, reps, node=node.name)
        rows.append(row)
    return rows


def im2col_bytes(graph, batch, itemsize):
    """Bytes of the column matrices one forward pass builds, computed from
    the shapes: batch x (c_in k k) x (oh ow) per convolution."""
    shapes = compute_shapes(graph)
    total = 0
    for node in graph.nodes:
        if node.kind == "conv":
            c_in = shapes[node.inputs[0]][0]
            _, oh, ow = shapes[node.name]
            total += batch * c_in * node.attrs["k"] ** 2 * oh * ow * itemsize
    return total


def activation_bytes(acts):
    return sum(a.nbytes for a in {id(a): a for a in acts.values()}.values())


def exact_counts(subject, model):
    """Counts that must repeat exactly for the same code and workload."""
    graph, x = subject.graph, subject.x
    cost = count_flops(graph)
    kinds = {n.name: n.kind for n in graph.nodes}
    counts = {}
    for name, macs in cost.per_node_macs.items():
        key = f"accounting.macs.{kinds[name]}"
        counts[key] = counts.get(key, 0) + macs
    for kind, n in cost.aux_elements.items():
        counts[f"accounting.aux.{kind}"] = n
    counts["ops.conv.im2col_mb"] = im2col_bytes(graph, len(x), x.itemsize) / MB
    acts, _ = forward_pass(graph, subject.store, x, mode=subject.mode)
    counts["engine.peak_act_mb"] = activation_bytes(acts) / MB
    stats = {}
    for r in subject.requests:
        predict_all(model, r, stats=stats)
    counts["multihead.trunk_forwards_per_request"] = \
        stats["trunk_forwards"] / len(subject.requests)
    counts["multihead.cost_ratio"] = \
        combined_flops(model)[0] / count_flops(model.trunk_graph).total_macs
    return counts


def sweep(subject, study_parts, tracer, reps, work_dir):
    """All per-layer metrics on the workload's own model and batch.

    Returns (metrics, per-node rows, failed operations). study_parts holds
    the traced study's grid and probe seconds for branch-study. Every
    workload also runs a one-step study here: it gives the others their
    experiments metrics, and it keeps the set of spans the sweep opens
    alike across workloads."""
    g, store, x = subject.graph, subject.store, subject.x
    m, failed = {}, 0
    ms = 1e3

    tracer.op = "sweep-engine"
    fwd = []
    for _ in range(reps):
        (acts, _), dt = tracer.call("engine.forward_pass", forward_pass, g,
                                    store, x, mode=subject.mode)
        fwd.append(dt)
    m["engine.forward_ms"] = median(fwd) * ms
    m["engine.peak_act_mb"] = activation_bytes(acts) / MB

    rows = replay(g, store, acts, tracer, reps, subject.mode)
    macs = count_flops(g).per_node_macs
    for row in rows:
        row["macs"] = macs.get(row["node"], 0) * len(x)
    for kind in KINDS:
        for d in ("fwd", "bwd"):
            m[f"ops.{kind}.{d}_ms"] = sum(r[f"{d}_ms"] for r in rows
                                          if r["kind"] == kind)
    conv_macs = sum(r["macs"] for r in rows if r["kind"] == "conv")
    m["ops.conv.gmacs"] = conv_macs / (m["ops.conv.fwd_ms"] / ms) / 1e9
    m["ops.conv.im2col_mb"] = im2col_bytes(g, len(x), x.itemsize) / MB
    m["engine.self_ms"] = m["engine.forward_ms"] - sum(r["fwd_ms"] for r in rows)

    logits = acts["fc"]
    gy = np.random.default_rng(1).standard_normal(logits.shape).astype(logits.dtype)
    bwd = []
    for _ in range(reps):
        (grads, _), dt = tracer.call("engine.backward_pass", backward_pass, g,
                                     store, acts, {"fc": gy})
        bwd.append(dt)
    m["engine.backward_ms"] = median(bwd) * ms
    del acts

    tracer.op = "sweep-train"
    work = store.copy()
    sgd = [tracer.call("train.sgd_momentum_step", sgd_momentum_step, work,
                       grads, 0.1, 0.9)[1] for _ in range(reps)]
    m["train.sgd_step_ms"] = median(sgd) * ms
    del work, grads
    ev = [tracer.call("train.evaluate_accuracy", evaluate_accuracy, g, store,
                      Dataset(x, subject.identity))[1] for _ in range(reps)]
    m["train.eval_ms"] = median(ev) * ms

    task = Dataset(x, subject.nuisance)
    cfg = TrainConfig.desk(batch_size=len(x), max_minibatches=1)
    for bp in g.branch_points:
        tracer.op = f"sweep-finetune-{bp}"
        br = make_branch(g, store, bp, 7, seed=derive_seed(subject.seed, "sweep", bp))
        steps = [tracer.call("train.finetune", finetune, br, task,
                             replace(cfg, seed=r))[1] for r in range(reps)]
        step_ms = median(steps) * ms
        b_acts, _ = forward_pass(br.graph, br.store, x, mode="train",
                                 train_from=br.branch_index)
        prefix = replay(br.graph, br.store, b_acts, tracer, reps, "train",
                        train_from=br.branch_index, end=br.branch_index,
                        backward=False)
        m[f"finetune.step_ms.{bp}"] = step_ms
        m[f"finetune.prefix_share.{bp}"] = sum(r["fwd_ms"] for r in prefix) / step_ms
        del br, b_acts

    tracer.op = "sweep-params"
    path = os.path.join(work_dir, "sweep.ckpt")
    writes = [tracer.call("params.save_checkpoint", save_checkpoint, path, g,
                          store)[1] for _ in range(reps)]
    with open(path, "rb") as f:
        data = f.read()
    os.remove(path)
    parses = [tracer.call("params.parse_checkpoint", parse_checkpoint, data)[1]
              for _ in range(reps)]
    m["params.ckpt_write_ms"] = median(writes) * ms
    m["params.ckpt_parse_ms"] = median(parses) * ms
    m["params.ckpt_mb"] = len(data) / MB
    del data
    sums = [tracer.call("params.frozen_checksum", frozen_checksum, g, store,
                        g.index("fc"))[1] for _ in range(reps)]
    m["params.frozen_checksum_ms"] = median(sums) * ms

    tracer.op = "sweep-multihead"
    model = subject.model
    if model is None:
        bundle = os.path.join(work_dir, "sweep-bundle")
        tracer.call("multihead.save_bundle", save_bundle, bundle,
                    head_model(g, store, subject.seed))
        model, _ = tracer.call("multihead.load_bundle", load_bundle, bundle)
    m["multihead.load_bundle_ms"] = \
        median(tracer.durations("multihead.load_bundle")) * ms
    trunk, resume = [], {h.spec.task: [] for h in model.heads}
    for _ in range(reps):
        for r in subject.requests:
            (t_acts, _), dt = tracer.call("engine.forward_pass", forward_pass,
                                          model.trunk_graph, model.trunk_store, r,
                                          mode="infer")
            trunk.append(dt)
            for h in model.heads:
                _, dt = tracer.call("engine.forward_pass", forward_pass,
                                    h.graph, h.store, None, mode="infer",
                                    start=h.graph.index(h.spec.branch_layer),
                                    cache=t_acts)
                resume[h.spec.task].append(dt)
    m["multihead.trunk_ms"] = median(trunk) * ms
    for t, times in resume.items():
        m[f"multihead.head_resume_ms.{t}"] = median(times) * ms
    stats = {}
    for r in subject.requests:
        tracer.call("multihead.predict_all", predict_all, model, r, stats=stats)
    m["multihead.trunk_forwards_per_request"] = \
        stats["trunk_forwards"] / len(subject.requests)
    (total, _), _ = tracer.call("multihead.combined_flops", combined_flops, model)
    m["multihead.cost_ratio"] = total / count_flops(model.trunk_graph).total_macs

    phase = Phase()
    short = run_study(g, store, subject.study, subject.study_cfg,
                      SHORT_PROBE_BUDGET, derive_seed(subject.seed, "short"),
                      tracer, phase)
    failed += phase.failed
    if study_parts is None and short is not None:
        study_parts = {"grid_s": short[0], "probe_s": short[1]}
    if study_parts is not None:
        m["experiments.grid_s"] = study_parts["grid_s"]
        m["experiments.probe_s"] = study_parts["probe_s"]

    tracer.op = "sweep-dataio"
    ids = split_ids(subject.manifest, "train")[:len(x)]
    loads = [tracer.call("dataio.load_batch", load_batch, subject.manifest,
                         ids)[1] for _ in range(reps)]
    m["dataio.load_batch_ms"] = median(loads) * ms
    m["dataio.synth_s"] = median(tracer.durations("dataio.generate_synthetic"))
    return m, rows, failed
