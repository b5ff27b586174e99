"""Optimization: SGD with momentum, step-decay schedule, branch fine-tuning.

Training mutates a ParamStore in place and returns a TrainLog. Determinism
contract: given identical (graph, initial store, dataset, config), every
run produces bit-identical stores and logs. Minibatch composition at step t
depends only on (config.seed, t), so runs are also resumable.

Branching replaces the identity head with a task head and freezes every
parameter owned by a node before the branch layer. Frozen parameters are
shared with the donor store by reference, which both saves memory and makes
any accidental mutation visible to checksum tests.

The frozen prefix runs in inference mode on fixed weights, so each sample's
output from it never changes: train() computes it once per call over the
whole dataset and every step gathers its minibatch rows from there. No
prefix node mixes samples, so those rows are bitwise equal to a per-step
forward from node 0. A trunk step resumes the same way at node 0, whose
boundary is the network input: {"input": dataset.inputs}, gathered by the
step's minibatch indices.

A step that leaves a non-finite value in an array it updated, or a
non-finite loss, raises ValueError naming the minibatch, so no run returns
weights that a checkpoint could not hold.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .common import derive_rng
from .config import fields_from_mapping, fields_to_mapping
from .engine import backward_pass, boundary, forward_pass, infer
from .graph import INPUT_NAME, GraphSpec, head_graph
from .params import ParamStore, batchnorm_nodes, param_owner, param_shapes

LOSS_KINDS = ("softmax", "sigmoid-multilabel")
LOGITS_NODE = "fc"


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.1
    lr_decay_factor: float = 4.0
    lr_decay_every: int = 10_000
    momentum_coeff: float = 0.9
    batch_size: int = 400
    init_std: float = 0.1
    max_minibatches: int = 30_000
    seed: int = 0

    def __post_init__(self):
        if min(self.lr0, self.lr_decay_factor, self.lr_decay_every,
               self.batch_size) <= 0:
            raise ValueError("rate, decay factor, decay interval and batch size "
                             "must all be positive")
        if self.init_std < 0 or self.max_minibatches < 0:
            raise ValueError("init_std and max_minibatches must be nonnegative")

    @classmethod
    def desk(cls, **overrides):
        """CPU-sized schedule: small batches, faster decay, bounded run."""
        base = dict(batch_size=32, lr_decay_every=500, max_minibatches=5_000)
        base.update(overrides)
        return cls(**base)

    def to_mapping(self, prefix="train."):
        return fields_to_mapping(self, prefix)

    @classmethod
    def from_mapping(cls, mapping, prefix="train.", base=None):
        """base (default: the full-scale schedule) with the mapping's
        prefixed keys applied."""
        return fields_from_mapping(base or cls(), mapping, prefix, "training")


def check_task(num_classes, loss):
    """Raise ValueError unless a head of num_classes outputs under loss can
    be built: at least 2 classes and a loss from LOSS_KINDS."""
    if num_classes < 2:
        raise ValueError(f"a task needs at least 2 classes, got {num_classes}")
    if loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_KINDS}")


def lr_at(t: int, config: TrainConfig) -> float:
    """Step decay: lr0 / factor^(number of completed decay intervals)."""
    if t < 0:
        raise ValueError(f"minibatch index must be nonnegative, got {t}")
    return config.lr0 * config.lr_decay_factor ** (-(t // config.lr_decay_every))


def init_params(graph: GraphSpec, config: TrainConfig) -> ParamStore:
    """Fresh store: weights N(0, init_std^2), biases and batchnorm shifts
    zero, batchnorm scales one, velocities zero, everything trainable."""
    store = ParamStore()
    for name, shape in sorted(param_shapes(graph).items()):
        store.arrays[name] = _fresh_param(name, shape, config.init_std,
                                          config.seed, "init")
        store.momentum[name] = np.zeros(shape, dtype=np.float32)
        store.trainable[name] = True
    for bn in batchnorm_nodes(graph):
        store.running[bn] = _fresh_stats(graph, bn)
    return store


def _fresh_param(name, shape, init_std, seed, *tags):
    """Weights ("w") N(0, init_std^2) from derive_rng(seed, *tags, name),
    batchnorm scales one, biases and shifts zero."""
    suffix = name.rpartition("/")[2]
    if suffix == "w" and init_std > 0:
        rng = derive_rng(seed, *tags, name)
        return rng.normal(0.0, init_std, size=shape).astype(np.float32)
    return np.full(shape, 1.0 if suffix == "gamma" else 0.0, dtype=np.float32)


def _fresh_stats(graph, bn):
    ch = graph.node(bn).attrs["ch"]
    return ops.RunningStats(np.zeros(ch, dtype=np.float32),
                            np.ones(ch, dtype=np.float32), 0)


def sgd_momentum_step(store: ParamStore, grads: dict, rate: float,
                      momentum_coeff: float):
    """v <- mu*v - rate*g; w <- w + v, applied to trainable arrays only.

    Frozen arrays and their velocities are left untouched even when a
    gradient is supplied for them. A trainable array without a velocity,
    as in a store loaded from a weights-only checkpoint, starts from rest.
    """
    for name, flag in store.trainable.items():
        if not flag:
            continue
        if name not in grads:
            raise ValueError(f"missing gradient for trainable array {name!r}")
        v = store.momentum.get(name)
        if v is None:
            v = store.momentum[name] = np.zeros_like(store.arrays[name])
        v *= momentum_coeff
        v -= (rate * grads[name]).astype(v.dtype)
        store.arrays[name] += v


@dataclass
class TrainLog:
    header: dict
    rows: list = field(default_factory=list)  # (index, rate, loss, accuracy)

    def to_text(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.header.items()]
        lines.append("index\trate\tloss\taccuracy")
        for t, rate, loss, acc in self.rows:
            lines.append(f"{t}\t{rate!r}\t{loss!r}\t{acc!r}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w") as f:
            f.write(self.to_text())


@dataclass
class Dataset:
    """In-memory labeled samples for one task."""

    inputs: np.ndarray   # (n, c, h, w) float32
    labels: np.ndarray   # (n,) int labels, or (n, m) binary for multilabel

    def __post_init__(self):
        if self.inputs.ndim != 4:
            raise ValueError(f"inputs must be (n, c, h, w), got {self.inputs.shape}")
        if len(self.labels) != len(self.inputs):
            raise ValueError(f"{len(self.inputs)} inputs vs {len(self.labels)} labels")

    def __len__(self):
        return len(self.inputs)


def _batch_indices(n, t, config):
    rng = derive_rng(config.seed, "batch", t)
    return rng.choice(n, size=config.batch_size, replace=n < config.batch_size)


def _loss_and_grad(logits, labels, loss):
    if loss == "softmax":
        value, probs, grad = ops.softmax_cross_entropy(logits, labels)
        acc = float((probs.argmax(axis=1) == np.asarray(labels)).mean())
    elif loss == "sigmoid-multilabel":
        value, scores, grad = ops.sigmoid_multilabel_loss(logits, labels)
        acc = float(((scores >= 0.5) == (np.asarray(labels) >= 0.5)).mean())
    else:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_KINDS}")
    return value, grad, acc


def train(graph: GraphSpec, store: ParamStore, dataset: Dataset,
          config: TrainConfig, loss: str = "softmax",
          train_from: int = 0) -> TrainLog:
    """Minibatch SGD over the dataset; mutates store, returns the log.

    train_from freezes execution semantics, not flags: batchnorm nodes below
    it run in inference mode and no gradients are produced below it. The
    store's trainable flags decide what the optimizer updates; both must
    agree for a correct freeze (make_branch sets them together).
    """
    log = TrainLog(header={**config.to_mapping(prefix=""),
                           "loss": loss, "train_from": train_from})
    n = len(dataset)
    if n == 0 and config.max_minibatches > 0:
        raise ValueError("cannot train on an empty dataset")
    prefix = {INPUT_NAME: dataset.inputs}
    if train_from > 0 and n > 0:
        keep = boundary(graph, train_from)
        if graph.index(LOGITS_NODE) < train_from:
            keep.add(LOGITS_NODE)  # no step computes the logits then
        prefix = infer(graph, store, dataset.inputs, keep, config.batch_size)
    updated = [name for name, flag in store.trainable.items() if flag]
    saved = {}  # contexts from each step's forward, emptied by its backward
    for t in range(config.max_minibatches):
        rate = lr_at(t, config)
        idx = _batch_indices(n, t, config)
        yb = dataset.labels[idx]
        acts, bn_updates = forward_pass(
            graph, store, None, mode="train", train_from=train_from,
            start=train_from,
            cache={name: a[idx] for name, a in prefix.items()}, saved=saved)
        store.running.update(bn_updates)
        value, logit_grad, acc = _loss_and_grad(acts[LOGITS_NODE], yb, loss)
        if not np.isfinite(value):
            raise ValueError(f"non-finite loss at minibatch {t}; training aborted")
        grads, _ = backward_pass(graph, store, acts, {LOGITS_NODE: logit_grad},
                                 stop=train_from, saved=saved, input_grad=False)
        sgd_momentum_step(store, grads, rate, config.momentum_coeff)
        for name in updated:
            if not np.isfinite(store.arrays[name]).all():
                raise ValueError(f"non-finite value in {name!r} after "
                                 f"minibatch {t}; training aborted")
        log.rows.append((t, rate, value, acc))
    return log


def evaluate_accuracy(graph: GraphSpec, store: ParamStore, dataset: Dataset,
                      loss: str = "softmax", batch_size: int = 256) -> float:
    """Inference-mode accuracy: exact-match for softmax heads, element-wise
    agreement for multilabel heads."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = infer(graph, store, dataset.inputs, {LOGITS_NODE},
                   batch_size)[LOGITS_NODE]
    labels = np.asarray(dataset.labels)
    if loss == "softmax":
        hits = (logits.argmax(axis=1) == labels)
    elif loss == "sigmoid-multilabel":
        hits = ((ops.sigmoid(logits) >= 0.5) == (labels >= 0.5))
    else:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_KINDS}")
    return float(hits.sum()) / hits.size


@dataclass
class Branch:
    """A task head sharing the frozen trunk prefix by reference."""

    graph: GraphSpec
    store: ParamStore
    branch_layer: str
    num_classes: int
    loss: str

    @property
    def branch_index(self):
        return self.graph.index(self.branch_layer)


def make_branch(trunk_graph: GraphSpec, trunk_store: ParamStore,
                branch_layer: str, num_classes: int, loss: str = "softmax",
                warm: bool = False, init_std: float = 0.1,
                seed: int = 0) -> Branch:
    """Build a fine-tuning head branching at branch_layer.

    Parameters owned by nodes before the branch layer are shared with the
    trunk store by reference and marked frozen. Layers from the branch on
    are re-initialized (warm=False) or copied (warm=True); the final fc is
    always fresh at the task's width. Frozen momentum is shared where the
    trunk store has it; a weights-only trunk gives the branch none there.
    Running statistics of frozen batchnorm nodes are shared; retrained
    ones restart empty when cold.
    """
    check_task(num_classes, loss)
    if branch_layer not in trunk_graph.branch_points:
        raise ValueError(f"unknown branch layer {branch_layer!r}; valid points: "
                         + ", ".join(trunk_graph.branch_points))
    graph = head_graph(trunk_graph, num_classes, loss)
    bidx = graph.index(branch_layer)
    store = ParamStore()
    for name, shape in param_shapes(graph).items():
        owner = param_owner(name)
        if graph.index(owner) < bidx:
            store.arrays[name] = trunk_store.arrays[name]
            if name in trunk_store.momentum:
                store.momentum[name] = trunk_store.momentum[name]
            store.trainable[name] = False
            continue
        store.trainable[name] = True
        store.momentum[name] = np.zeros(shape, dtype=np.float32)
        if warm and owner != "fc":
            store.arrays[name] = trunk_store.arrays[name].copy()
        else:
            store.arrays[name] = _fresh_param(name, shape, init_std, seed,
                                              "branch", branch_layer)
    for bn in batchnorm_nodes(graph):
        if graph.index(bn) < bidx:
            store.running[bn] = trunk_store.running[bn]
        elif warm:
            rs = trunk_store.running[bn]
            store.running[bn] = ops.RunningStats(rs.mean.copy(), rs.var.copy(),
                                                 rs.count)
        else:
            store.running[bn] = _fresh_stats(graph, bn)
    return Branch(graph, store, branch_layer, num_classes, loss)


def finetune(branch: Branch, dataset: Dataset, config: TrainConfig) -> TrainLog:
    """Train the branch's retrained suffix; the frozen prefix stays bitwise
    intact (batchnorm inference mode, no gradients, no optimizer updates)."""
    return train(branch.graph, branch.store, dataset, config,
                 loss=branch.loss, train_from=branch.branch_index)
