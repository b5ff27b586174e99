"""Shared-trunk multi-head inference.

The trunk runs exactly once per input batch; each task head resumes from
the cached activation at its branch point. Because a head's frozen prefix
holds the very same arrays as the trunk and both run in inference mode,
the cached resume is bitwise identical to running the head standalone.

add_head enforces that sharing. The head's graph must be
graph.head_graph of the trunk for its spec's class count and loss, and so
holds the trunk's input shape and every node but its classifier; the task
must be new to the model; and the branch layer must be one of the trunk's
branch points (GraphSpec.branch_index). params.share_prefix then checks
the head's store against the trunk's prefix (a suffix-only head holds no
prefix record, so there is nothing to compare) and only then points the
head at the trunk's objects, so a model holds every prefix byte once,
whether its heads came from make_branch or from separate checkpoint files.
This module names, hashes and compares no prefix record itself: params
does all three.

Bundle layout on disk: a directory with trunk.ckpt, one <task>.ckpt per
head, and heads.txt carrying one HeadSpec record per line (see
config.parse_records):
    task branch_layer num_classes loss prefix_sha256
The trunk is stored once. A head file holds only the head's records from
its branch layer on (a partial record set, params.read_checkpoint's
start), and prefix_sha256 is params.prefix_digests' sha256 of the trunk's
served_records before that layer. load_bundle checks the digest against
trunk.ckpt and loads the suffix; the head then holds no prefix record, so
add_head has nothing to compare and shares the trunk's prefix once. A
4-field line, as bundles written before suffix-only head files hold,
names a head file with its whole prefix, which loads and is compared
record by record as it always was.

Each checkpoint holds weights only: trainable flags, parameters and
running statistics, no momentum, which serving never reads. load_bundle
also drops momentum that a bundle written with it carries. A missing
file, a heads.txt line that does not parse, a prefix digest that does
not match trunk.ckpt, a checkpoint with a batchnorm whose running
statistics are missing or were never counted (count 0, as init_params
leaves them), or a head that add_head rejects is a ValueError naming the
file, line, node or record, so a bundle that loads serves every request.
"""

import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .accounting import count_flops, suffix_macs
from .config import format_records, load_records
from .engine import boundary, forward_pass, infer
from .graph import INPUT_NAME, GraphSpec, check_task, head, head_graph
from .params import (ParamStore, batchnorm_nodes, load_checkpoint,
                     prefix_digests, save_checkpoint, served_records,
                     share_prefix)

HEADS_FILE = "heads.txt"
TRUNK_FILE = "trunk.ckpt"


@dataclass(frozen=True)
class HeadSpec:
    """One line of heads.txt. The task names the head's checkpoint file, so
    it must be a plain file stem: not empty, no path separator, not "." or
    "..", and not the trunk's. It is also one whitespace-separated field of
    its line, so it holds no whitespace and no "#", which starts a comment.

    prefix_sha256 is the trunk's served prefix digest at the branch layer
    (params.prefix_digests) for a head whose file holds only its suffix,
    or "" for a head file that holds its whole prefix, as a bundle written
    before suffix-only head files does (a 4-field line)."""

    task: str
    branch_layer: str
    num_classes: int
    loss: str
    prefix_sha256: str = ""

    def __post_init__(self):
        check_task(self.num_classes, self.loss)
        task = self.task
        if (task in ("", ".", "..") or os.path.basename(task) != task
                or f"{task}.ckpt" == TRUNK_FILE):
            raise ValueError(f"task {task!r} is not a plain file stem "
                             f"other than the trunk's")
        if "#" in task or any(c.isspace() for c in task):
            raise ValueError(f"task {task!r} holds whitespace or '#', which "
                             f"{HEADS_FILE} cannot hold in one field")
        if self.prefix_sha256 and not re.fullmatch("[0-9a-f]{64}",
                                                   self.prefix_sha256):
            raise ValueError(f"head {task!r} prefix digest "
                             f"{self.prefix_sha256!r} is not 64 lowercase hex "
                             f"digits")


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
        """Attach the head once its graph is the trunk's head graph for its
        spec, its task is new to the model, and params.share_prefix, at
        the trunk's index of its branch layer (GraphSpec.branch_index), has
        checked its store and pointed it at the trunk's prefix. A refusal
        is a ValueError naming the head, but for a branch layer that is no
        branch point, and leaves the store as it was."""
        if graph != head_graph(self.trunk_graph, spec.num_classes, spec.loss):
            raise ValueError(f"head {spec.task!r} is not the trunk's head for "
                             f"{spec.num_classes} classes and loss "
                             f"{spec.loss!r}")
        if any(head.spec.task == spec.task for head in self.heads):
            raise ValueError(f"head {spec.task!r} is already in the model")
        bidx = self.trunk_graph.branch_index(spec.branch_layer)
        try:
            share_prefix(graph, store, self.trunk_store, bidx)
        except ValueError as exc:
            raise ValueError(f"head {spec.task!r} {exc}") from None
        self.heads.append(Head(spec, graph, store))


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
    The identity logits are the input of the trunk's head (graph.head).

    stats, when given, is a mutable dict whose "trunk_forwards" counter is
    incremented once per call; tests use it to certify the sharing contract.
    """
    if (x.ndim != 4 or not len(x)
            or x.shape[1:] != tuple(model.trunk_graph.input_shape)):
        raise ValueError(f"input shape {x.shape} does not match trunk input "
                         f"{model.trunk_graph.input_shape} for one sample "
                         f"or more")
    _, identity, _ = head(model.trunk_graph)
    keep = {identity}
    for h in model.heads:
        keep |= boundary(h.graph, h.graph.index(h.spec.branch_layer))
    trunk_acts = infer(model.trunk_graph, model.trunk_store, {INPUT_NAME: x},
                       keep)
    if stats is not None:
        stats["trunk_forwards"] = stats.get("trunk_forwards", 0) + 1

    tasks = {}
    for h in model.heads:
        last = h.graph.nodes[-1].name
        scores = infer(h.graph, h.store, trunk_acts, {last},
                       h.graph.index(h.spec.branch_layer))[last]
        tasks[h.spec.task] = TaskOutput(scores, scores.argmax(axis=1))
    logits = trunk_acts[identity]
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


def _served_digests(model: MultiHeadModel) -> list:
    """The trunk's served prefix digest at each node index."""
    return prefix_digests(model.trunk_graph, served_records(model.trunk_store))


def save_bundle(dirpath, model: MultiHeadModel):
    """Write trunk.ckpt, each head's records from its branch layer on to
    <task>.ckpt, and heads.txt, whose lines carry the prefix digests."""
    os.makedirs(dirpath, exist_ok=True)
    save_checkpoint(os.path.join(dirpath, TRUNK_FILE),
                    model.trunk_graph, _weights_only(model.trunk_store))
    digests = _served_digests(model)
    specs = []
    for head in sorted(model.heads, key=lambda h: h.spec.task):
        layer = head.spec.branch_layer
        save_checkpoint(os.path.join(dirpath, f"{head.spec.task}.ckpt"),
                        head.graph, _weights_only(head.store), start=layer)
        specs.append(replace(head.spec, prefix_sha256=digests[
            model.trunk_graph.index(layer)]))
    with open(os.path.join(dirpath, HEADS_FILE), "w") as f:
        f.write(format_records(specs))


def load_bundle(dirpath) -> MultiHeadModel:
    """The model a bundle holds. A head with a prefix digest loads only its
    suffix, once the trunk's digest at its branch layer matches; a head
    without one loads its whole file and is compared record by record."""
    model = MultiHeadModel(*_load_servable(dirpath, TRUNK_FILE))
    specs = load_records(HeadSpec, _bundle_file(dirpath, HEADS_FILE))
    digests = (_served_digests(model)
               if any(spec.prefix_sha256 for spec in specs) else [])
    for spec in specs:
        start = None
        if spec.prefix_sha256:
            bidx = model.trunk_graph.branch_index(spec.branch_layer)
            if digests[bidx] != spec.prefix_sha256:
                raise ValueError(f"head {spec.task!r}: the served records of "
                                 f"{os.path.join(dirpath, TRUNK_FILE)!r} before "
                                 f"{spec.branch_layer!r} do not match the "
                                 f"head's prefix digest")
            start = spec.branch_layer
        graph, store = _load_servable(dirpath, f"{spec.task}.ckpt", start)
        model.add_head(spec, graph, store)
    return model


def _load_servable(dirpath, name, start=None):
    """(graph, store) of a bundle checkpoint, momentum dropped; with start,
    a head file holding the records from that node on. Every batchnorm
    runs in inference mode, so one the file holds without running
    statistics counted at least once is a ValueError naming the file and
    the node."""
    path = _bundle_file(dirpath, name)
    graph, store = load_checkpoint(path, start)
    cut = graph.index(start) if start is not None else 0
    for bn in batchnorm_nodes(graph):
        if graph.index(bn) < cut:
            continue
        if bn not in store.running or store.running[bn].count < 1:
            raise ValueError(f"bundle checkpoint {path!r}: batchnorm {bn!r} has "
                             f"no running statistics with a count >= 1, so it "
                             f"cannot serve")
    store.momentum.clear()
    return graph, store


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
