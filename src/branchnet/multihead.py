"""Shared-trunk multi-head inference.

The trunk runs exactly once per input batch; each task head resumes from
the cached activation at its branch point. Because a head's frozen prefix
holds the very same arrays as the trunk and both run in inference mode,
the cached resume is bitwise identical to running the head standalone.

add_head enforces that sharing. The branch layer must be one of the
trunk's branch points, a head's prefix (its nodes before the branch layer)
must match the trunk's nodes, and each prefix parameter and batchnorm
running statistic must equal the trunk's bit for bit. The head's graph
must then be graph.head_graph of the trunk for its spec's class count and
loss, and its task must be new to the model. A mismatch raises ValueError.
The head's store then refers to the trunk's objects, so a model holds
every prefix byte once, whether its heads came from make_branch or from
separate checkpoint files.

Bundle layout on disk: a directory with trunk.ckpt, one <task>.ckpt per
head, and heads.txt carrying one HeadSpec record per line (see
config.parse_records):
    task branch_layer num_classes loss
Each checkpoint holds weights only: trainable flags, parameters and
running statistics, no momentum, which serving never reads. load_bundle
also drops momentum that a bundle written with it carries. A missing
file, a heads.txt line that does not parse, or a head that add_head
rejects is a ValueError, so a bundle that loads serves every request.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .accounting import count_flops, suffix_macs
from .config import load_records
from .engine import boundary, forward_pass
from .graph import GraphSpec, head_graph
from .params import (ParamStore, batchnorm_nodes, frozen_names,
                     load_checkpoint, save_checkpoint)
from .train import check_task

HEADS_FILE = "heads.txt"
TRUNK_FILE = "trunk.ckpt"


@dataclass(frozen=True)
class HeadSpec:
    """One line of heads.txt. The task names the head's checkpoint file, so
    it must be a plain file stem: not empty, no path separator, not "." or
    "..", and not the trunk's."""

    task: str
    branch_layer: str
    num_classes: int
    loss: str

    def __post_init__(self):
        check_task(self.num_classes, self.loss)
        task = self.task
        if (task in ("", ".", "..") or os.path.basename(task) != task
                or f"{task}.ckpt" == TRUNK_FILE):
            raise ValueError(f"task {task!r} is not a plain file stem "
                             f"other than the trunk's")


@dataclass
class Head:
    spec: HeadSpec
    graph: GraphSpec
    store: ParamStore


@dataclass
class MultiHeadModel:
    trunk_graph: GraphSpec
    trunk_store: ParamStore
    heads: list = field(default_factory=list)

    def add_head(self, spec: HeadSpec, graph: GraphSpec, store: ParamStore):
        """Validate the head against the trunk and attach it; on success
        the head's store refers to the trunk's prefix arrays and running
        statistics."""
        if spec.branch_layer not in self.trunk_graph.branch_points:
            raise ValueError(f"head {spec.task!r} branches at "
                             f"{spec.branch_layer!r}, which the trunk lacks "
                             f"as a branch point")
        if graph.input_shape != self.trunk_graph.input_shape:
            raise ValueError(f"head {spec.task!r} input shape {graph.input_shape} "
                             f"does not match trunk {self.trunk_graph.input_shape}")
        bidx = self.trunk_graph.index(spec.branch_layer)
        for mine, theirs in zip(graph.nodes[:bidx], self.trunk_graph.nodes):
            if mine != theirs:
                raise ValueError(f"head {spec.task!r} prefix diverges from the "
                                 f"trunk at node {mine.name!r}")
        trunk = self.trunk_store
        arrays = frozen_names(graph, bidx)
        running = [bn for bn in batchnorm_nodes(graph) if graph.index(bn) < bidx]
        for name in arrays:
            if not _same_bits(store.arrays.get(name), trunk.arrays.get(name)):
                raise _mismatch(spec, "a/" + name)
        for bn in running:
            mine, theirs = store.running.get(bn), trunk.running.get(bn)
            if mine is theirs:
                continue
            if mine is None or theirs is None or mine.count != theirs.count:
                raise _mismatch(spec, "rc/" + bn)
            if not _same_bits(mine.mean, theirs.mean):
                raise _mismatch(spec, "rm/" + bn)
            if not _same_bits(mine.var, theirs.var):
                raise _mismatch(spec, "rv/" + bn)
        if graph != head_graph(self.trunk_graph, spec.num_classes, spec.loss):
            raise ValueError(f"head {spec.task!r} is not the trunk's head for "
                             f"{spec.num_classes} classes and loss "
                             f"{spec.loss!r}")
        if any(head.spec.task == spec.task for head in self.heads):
            raise ValueError(f"head {spec.task!r} is already in the model")
        for name in arrays:
            store.arrays[name] = trunk.arrays[name]
        for bn in running:
            store.running[bn] = trunk.running[bn]
        self.heads.append(Head(spec, graph, store))


def _same_bits(a, b):
    """The same array, or arrays of one shape and dtype whose bits, read as
    unsigned integers of the element width, are equal (so NaN payloads and
    -0.0 count)."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return False
    if a is b:
        return True
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    uint = f"u{a.dtype.itemsize}"
    return np.array_equal(np.ascontiguousarray(a).reshape(-1).view(uint),
                          np.ascontiguousarray(b).reshape(-1).view(uint))


def _mismatch(spec, record):
    return ValueError(f"head {spec.task!r} record {record!r} does not match "
                      f"the trunk's bit for bit")


@dataclass
class TaskOutput:
    scores: np.ndarray  # (n, num_classes) probabilities
    labels: np.ndarray  # (n,) argmax class indices


@dataclass
class Prediction:
    identity_logits: np.ndarray
    identity_probs: np.ndarray
    tasks: dict  # task name -> TaskOutput


def predict_all(model: MultiHeadModel, x, stats=None) -> Prediction:
    """Evaluate the trunk once and every head from its cached branch point.

    stats, when given, is a mutable dict whose "trunk_forwards" counter is
    incremented once per call; tests use it to certify the sharing contract.
    """
    if x.ndim != 4 or x.shape[1:] != tuple(model.trunk_graph.input_shape):
        raise ValueError(f"input shape {x.shape} does not match trunk input "
                         f"{model.trunk_graph.input_shape}")
    keep = {"fc"}
    for head in model.heads:
        keep |= boundary(head.graph, head.graph.index(head.spec.branch_layer))
    trunk_acts, _ = forward_pass(model.trunk_graph, model.trunk_store, x,
                                 mode="infer", keep=keep)
    if stats is not None:
        stats["trunk_forwards"] = stats.get("trunk_forwards", 0) + 1

    tasks = {}
    for head in model.heads:
        last = head.graph.nodes[-1].name
        acts, _ = forward_pass(head.graph, head.store, None, mode="infer",
                               start=head.graph.index(head.spec.branch_layer),
                               cache=trunk_acts, keep={last})
        scores = acts[last]
        tasks[head.spec.task] = TaskOutput(scores, scores.argmax(axis=1))
    logits = trunk_acts["fc"]
    return Prediction(logits, ops.softmax(logits), tasks)


def run_head_standalone(head: Head, x) -> np.ndarray:
    """Full end-to-end forward of one head; the bitwise oracle for the
    cached path in predict_all."""
    acts, _ = forward_pass(head.graph, head.store, x, mode="infer")
    return acts[head.graph.nodes[-1].name]


def combined_flops(model: MultiHeadModel):
    """(total, per_head): trunk cost plus each head's suffix beyond it."""
    trunk = count_flops(model.trunk_graph).total_macs
    per_head = {}
    for head in model.heads:
        per_head[head.spec.task] = suffix_macs(
            model.trunk_graph, head.spec.branch_layer, head.spec.num_classes)
    return trunk + sum(per_head.values()), per_head


def _weights_only(store: ParamStore) -> ParamStore:
    return ParamStore(store.arrays, {}, store.trainable, store.running)


def save_bundle(dirpath, model: MultiHeadModel):
    os.makedirs(dirpath, exist_ok=True)
    save_checkpoint(os.path.join(dirpath, TRUNK_FILE),
                    model.trunk_graph, _weights_only(model.trunk_store))
    lines = []
    for head in sorted(model.heads, key=lambda h: h.spec.task):
        save_checkpoint(os.path.join(dirpath, f"{head.spec.task}.ckpt"),
                        head.graph, _weights_only(head.store))
        s = head.spec
        lines.append(f"{s.task} {s.branch_layer} {s.num_classes} {s.loss}")
    with open(os.path.join(dirpath, HEADS_FILE), "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def load_bundle(dirpath) -> MultiHeadModel:
    trunk_graph, trunk_store = load_checkpoint(_bundle_file(dirpath, TRUNK_FILE))
    trunk_store.momentum.clear()
    model = MultiHeadModel(trunk_graph, trunk_store)
    for spec in load_records(HeadSpec, _bundle_file(dirpath, HEADS_FILE)):
        path = _bundle_file(dirpath, f"{spec.task}.ckpt")
        graph, store = load_checkpoint(path)
        store.momentum.clear()
        model.add_head(spec, graph, store)
    return model


def _bundle_file(dirpath, name):
    path = os.path.join(dirpath, name)
    if not os.path.isfile(path):
        raise ValueError(f"bundle {str(dirpath)!r} lacks {name}")
    return path


def format_prediction_lines(ids, prediction: Prediction, heads) -> list:
    """One line per input: id, identity and per-task `task=label:prob`
    fields, then a `<task>_scores=[...]` vector per multilabel head."""
    id_labels = prediction.identity_probs.argmax(axis=1)
    lines = []
    specs = sorted((h.spec for h in heads), key=lambda s: s.task)
    for i, sample_id in enumerate(ids):
        parts = [str(sample_id)]
        parts.append(f"identity={id_labels[i]}:"
                     f"{prediction.identity_probs[i, id_labels[i]]:.6f}")
        for spec in specs:
            out = prediction.tasks[spec.task]
            label = out.labels[i]
            parts.append(f"{spec.task}={label}:{out.scores[i, label]:.6f}")
        for spec in specs:
            if spec.loss == "sigmoid-multilabel":
                vec = ",".join(f"{v:.6f}" for v in prediction.tasks[spec.task].scores[i])
                parts.append(f"{spec.task}_scores=[{vec}]")
        lines.append(" ".join(parts))
    return lines
