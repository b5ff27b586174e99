"""Optimization: SGD with momentum, step-decay schedule, branch fine-tuning.

Training mutates a ParamStore in place and returns a TrainLog. Determinism
contract: given identical (graph, initial store, dataset, config), every
run produces bit-identical stores and logs. Minibatch composition at step t
depends only on (config.seed, t), so runs are also resumable.

The model says what to train: the loss and the hit rule are those of
the graph's head (graph.head), and training starts at the first node
that owns an array the store flags as trainable.

Branching swaps in a task head (graph.head_graph) and freezes every
parameter owned by a node before the branch layer. Frozen parameters are
shared with the donor store by reference, which both saves memory and makes
any accidental mutation visible to checksum tests. init_params and
make_branch get every other array from params.fill, which owns the draws
and the checkpoint's weight order; nothing here knows that order.

The frozen prefix runs in inference mode on fixed weights, so each sample's
output from it never changes: train() and evaluate_accuracy compute its
boundary once per call over the whole dataset, or read it from the
dataset (Dataset.activations, which the branch grid fills once per split),
and resume there. No prefix node mixes samples, so each step's minibatch
rows are bitwise equal to a per-step forward from node 0. A trunk step
resumes the same way at node 0, from {"input": dataset.inputs}.

A step that leaves a non-finite value in an array or running statistic it
updated, or a non-finite loss, raises ValueError naming the minibatch, so
no run returns weights that a checkpoint could not hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .common import derive_rng
from .config import check_ranges, fields_from_mapping, fields_to_mapping
from .engine import backward_pass, boundary, forward_pass, infer
from .graph import INPUT_NAME, GraphSpec, head, head_graph
from .params import ParamStore, fill, param_owner, share_prefix


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
        check_ranges(self, {
            "lr0": "(0, inf)", "lr_decay_factor": "(0, inf)",
            "lr_decay_every": "[1, inf)", "momentum_coeff": "[0, 1)",
            "batch_size": "[1, inf)", "init_std": "[0, inf)",
            "max_minibatches": "[0, inf)"})

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


def lr_at(t: int, config: TrainConfig) -> float:
    """Step decay: lr0 / factor^(number of completed decay intervals)."""
    if t < 0:
        raise ValueError(f"minibatch index must be nonnegative, got {t}")
    return config.lr0 * config.lr_decay_factor ** (-(t // config.lr_decay_every))


def init_params(graph: GraphSpec, config: TrainConfig) -> ParamStore:
    """Fresh store (params.fill): weights N(0, init_std^2), biases and
    batchnorm shifts zero, batchnorm scales one, velocities zero,
    everything trainable."""
    return fill(graph, ParamStore(), config.init_std, config.seed, "init")


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
    """In-memory labeled samples for one task.

    activations may hold, by node name, inference-mode outputs of a frozen
    prefix for every sample, row for row with inputs. train() and
    evaluate_accuracy read them instead of running the prefix, so they
    must come from the store's own prefix weights (engine.infer).
    """

    inputs: np.ndarray   # (n, c, h, w) float32
    labels: np.ndarray   # (n,) int labels, or (n, m) binary for multilabel
    activations: dict = field(default_factory=dict)  # node name -> (n, ...)

    def __post_init__(self):
        if self.inputs.ndim != 4:
            raise ValueError(f"inputs must be (n, c, h, w), got {self.inputs.shape}")
        if len(self.labels) != len(self.inputs):
            raise ValueError(f"{len(self.inputs)} inputs vs {len(self.labels)} labels")
        for name, a in self.activations.items():
            if len(a) != len(self.inputs):
                raise ValueError(f"{len(self.inputs)} inputs vs {len(a)} rows "
                                 f"of cached activation {name!r}")

    def __len__(self):
        return len(self.inputs)


def _batch_indices(n, t, config):
    rng = derive_rng(config.seed, "batch", t)
    return rng.choice(n, size=config.batch_size, replace=n < config.batch_size)


def _prefix(graph, store, dataset, logits):
    """(train_from, activations): train_from is the index of the first
    node owning an array the store flags trainable (len(graph.nodes) when
    none does), activations what a pass resumed there reads (its boundary,
    or the logits when nothing trains): the dataset's own (its inputs at
    node 0, else its cached activations) when it holds them all, else an
    infer pass's."""
    train_from = min((graph.index(param_owner(name))
                      for name, flag in store.trainable.items() if flag),
                     default=len(graph.nodes))
    need = boundary(graph, train_from) or {logits}
    # a pass from node 0 reads the inputs themselves; any other reads
    # activations, "input" among them, in the engine's layout
    have = {INPUT_NAME: dataset.inputs} if train_from == 0 else dataset.activations
    if need <= have.keys():
        return train_from, {name: have[name] for name in need}
    return train_from, infer(graph, store, {INPUT_NAME: dataset.inputs}, need)


def train(graph: GraphSpec, store: ParamStore, dataset: Dataset,
          config: TrainConfig) -> TrainLog:
    """Minibatch SGD over the dataset; mutates store, returns the log.

    Nodes before the first one that owns a trainable array are the frozen
    prefix: their batchnorms run in inference mode and they get no
    gradients. The optimizer updates only the arrays flagged trainable.
    """
    kind, logits, loss = head(graph)
    n = len(dataset)
    if n == 0 and config.max_minibatches > 0:
        raise ValueError("cannot train on an empty dataset")
    train_from, prefix = _prefix(graph, store, dataset, logits)
    log = TrainLog(header={**config.to_mapping(prefix=""),
                           "loss": loss, "train_from": train_from})
    updated = [name for name, flag in store.trainable.items() if flag]
    saved = {}  # contexts from each step's forward, emptied by its backward
    for t in range(config.max_minibatches):
        rate = lr_at(t, config)
        idx = _batch_indices(n, t, config)
        yb = dataset.labels[idx]
        acts, bn_updates = forward_pass(
            graph, store, None, mode="train", start=train_from,
            cache={name: a[idx] for name, a in prefix.items()}, saved=saved)
        value, _, logit_grad = kind.loss(acts[logits], yb)
        if not np.isfinite(value):
            raise ValueError(f"non-finite loss at minibatch {t}; training aborted")
        for bn, stats in bn_updates.items():
            if not (np.isfinite(stats.mean).all() and np.isfinite(stats.var).all()):
                raise ValueError(f"non-finite running statistics of batchnorm "
                                 f"{bn!r} after minibatch {t}; training aborted")
        store.running.update(bn_updates)
        acc = float(kind.hits(acts[logits], yb).mean())
        grads, _ = backward_pass(graph, store, acts, {logits: logit_grad},
                                 stop=train_from, saved=saved, input_grad=False)
        sgd_momentum_step(store, grads, rate, config.momentum_coeff)
        for name in updated:
            if not np.isfinite(store.arrays[name]).all():
                raise ValueError(f"non-finite value in {name!r} after "
                                 f"minibatch {t}; training aborted")
        log.rows.append((t, rate, value, acc))
    return log


def evaluate_accuracy(graph: GraphSpec, store: ParamStore,
                      dataset: Dataset) -> float:
    """Inference-mode accuracy under the hit rule of the graph's head:
    exact match for a softmax head, element-wise agreement for a sigmoid
    head. The pass resumes where train() would, from the same prefix."""
    kind, logits, _ = head(graph)
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    start, prefix = _prefix(graph, store, dataset, logits)
    out = infer(graph, store, prefix, {logits}, start)[logits]
    return float(kind.hits(out, np.asarray(dataset.labels)).mean())


@dataclass
class Branch:
    """A task head sharing the frozen trunk prefix by reference."""

    graph: GraphSpec
    store: ParamStore
    branch_layer: str

    @property
    def branch_index(self):
        return self.graph.index(self.branch_layer)


def make_branch(trunk_graph: GraphSpec, trunk_store: ParamStore,
                branch_layer: str, num_classes: int, loss: str = "softmax",
                warm: bool = False, init_std: float = 0.1,
                seed: int = 0) -> Branch:
    """Build a fine-tuning head branching at branch_layer.

    The state of nodes before the branch layer is the trunk store's own
    (params.share_prefix). params.fill gives the layers from the branch on
    fresh arrays drawn under the tags ("branch", branch_layer) (warm=False)
    or copies of the trunk's (warm=True), running statistics included; the
    classifier (graph.head_graph) is always fresh at the task's width. A
    task or trunk head_graph rejects is a ValueError.
    """
    bidx = trunk_graph.branch_index(branch_layer)
    graph, store = head_graph(trunk_graph, num_classes, loss), ParamStore()
    share_prefix(graph, store, trunk_store, bidx)
    fill(graph, store, init_std, seed, "branch", branch_layer,
         donor=trunk_store if warm else None)
    return Branch(graph, store, branch_layer)


def finetune(branch: Branch, dataset: Dataset, config: TrainConfig) -> TrainLog:
    """Train the branch's retrained suffix. Its store flags every array
    before the branch layer frozen, so the prefix stays bitwise intact."""
    return train(branch.graph, branch.store, dataset, config)
