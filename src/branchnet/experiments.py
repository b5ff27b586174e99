"""Experiments over a trained trunk: the branch-depth grid, linear probes,
and the desk-scale invariance study.

Every grid cell and probe gets its own seed derived from (master seed,
coordinates), so cells are independent jobs and the assembled result does
not depend on execution order. Best-cell selection breaks ties toward the
deepest layer: a shallow branch must strictly beat a deep one to claim the
row, since deeper branches are cheaper to fine-tune and serve.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .common import derive_rng, derive_seed
from .dataio import SynthSpec, generate_synthetic, load_batch, split_ids
from .engine import infer
from .graph import ArchConfig, GraphSpec, build_trunk
from .params import save_checkpoint
from .train import (Dataset, TrainConfig, check_task, evaluate_accuracy,
                    finetune, init_params, make_branch, train)

# Reference accuracies shown alongside grid reports for orientation only;
# they come from a full-scale study on real face data and are never
# asserted against desk-scale synthetic results.
REFERENCE_CELLS = (("emotion", "conv19", 0.68), ("age", "conv22", 0.40),
                   ("ethnicity", "fc", 0.72), ("gender", "fc", 0.99))
PROBE_CHUNK = 128  # samples per inference pass over a probe split


@dataclass(frozen=True)
class GridTask:
    """One line of a branch-grid task table."""

    name: str
    label_column: str
    num_classes: int
    loss: str = "softmax"

    def __post_init__(self):
        check_task(self.num_classes, self.loss)


@dataclass(frozen=True)
class ProbeFactor:
    """One name:column:classes item of the probe command's --factors."""

    name: str
    column: str
    num_classes: int


DESK_TASKS = (GridTask("nuisance", "nuisance", 7, "softmax"),
              GridTask("binary", "binary", 2, "softmax"))


@dataclass
class GridResult:
    layers: tuple
    tasks: tuple
    cells: dict          # (layer, task name) -> held-out accuracy
    seed: int

    def best_layer(self, task_name: str) -> str:
        """Deepest layer among the accuracy maxima for the task."""
        best, best_acc = None, -1.0
        for layer in self.layers:
            acc = self.cells[(layer, task_name)]
            if acc >= best_acc:
                best, best_acc = layer, acc
        return best


def branch_grid(graph: GraphSpec, store, tasks, train_sets, val_sets,
                config: TrainConfig, master_seed: int,
                layers=None) -> GridResult:
    """Fine-tune one branch per (layer, task) cell and score it held out.

    train_sets/val_sets map task name -> Dataset. Each cell derives its own
    seed from (master_seed, "grid", layer, task); failures are re-raised
    with the cell coordinates attached.
    """
    layers = tuple(layers) if layers is not None else graph.branch_points
    for layer in layers:
        if layer not in graph.branch_points:
            raise ValueError(f"{layer!r} is not a branch point; valid points: "
                             + ", ".join(graph.branch_points))
    cells = {}
    for layer in layers:
        for task in tasks:
            cell_seed = derive_seed(master_seed, "grid", layer, task.name)
            try:
                branch = make_branch(graph, store, layer, task.num_classes,
                                     loss=task.loss, init_std=config.init_std,
                                     seed=cell_seed)
                finetune(branch, train_sets[task.name],
                         replace(config, seed=cell_seed))
                acc = evaluate_accuracy(branch.graph, branch.store,
                                        val_sets[task.name], loss=task.loss)
            except Exception as exc:
                raise RuntimeError(f"grid cell ({layer}, {task.name}) failed: "
                                   f"{exc}") from exc
            cells[(layer, task.name)] = acc
    return GridResult(layers, tuple(t.name for t in tasks), cells, master_seed)


def format_grid_matrix(grid: GridResult) -> str:
    lines = [f"# seed={grid.seed}", "layer\t" + "\t".join(grid.tasks)]
    for layer in grid.layers:
        vals = "\t".join(repr(grid.cells[(layer, t)]) for t in grid.tasks)
        lines.append(f"{layer}\t{vals}")
    return "\n".join(lines) + "\n"


def format_grid_table(grid: GridResult, reference=REFERENCE_CELLS) -> str:
    """Human-readable grid; the best cell per task column is starred."""
    best = {t: grid.best_layer(t) for t in grid.tasks}
    width = max(len(t) for t in grid.tasks) + 8
    lines = [f"branch-depth grid (seed {grid.seed}); columns starred at the "
             f"best layer, ties to the deepest", ""]
    header = f"{'layer':<12}" + "".join(f"{t:>{width}}" for t in grid.tasks)
    lines.append(header)
    lines.append("-" * len(header))
    for layer in grid.layers:
        row = f"{layer:<12}"
        for t in grid.tasks:
            mark = "*" if best[t] == layer else " "
            row += f"{grid.cells[(layer, t)]:>{width - 1}.4f}{mark}"
        lines.append(row)
    if reference:
        lines.append("")
        lines.append("full-scale reference points, shown for orientation only "
                     "(different data and scale; never asserted):")
        for task, layer, acc in reference:
            lines.append(f"  {task} best at {layer}: {acc:.2f}")
    return "\n".join(lines) + "\n"


@dataclass
class ProbeResult:
    layers: tuple
    factors: tuple
    cells: dict          # (layer, factor) -> held-out accuracy
    seed: int


def _pooled(a):
    """Activations pooled to one value per channel."""
    return a.mean(axis=(2, 3)) if a.ndim == 4 else a


def _train_linear_probe(feats, labels, num_classes, seed, budget, batch, rate):
    n, d = feats.shape
    w = np.zeros((d, num_classes), dtype=np.float64)
    b = np.zeros(num_classes, dtype=np.float64)
    for t in range(budget):
        rng = derive_rng(seed, "probe-batch", t)
        idx = rng.choice(n, size=batch, replace=n < batch)
        logits = feats[idx] @ w + b
        _, _, grad = ops.softmax_cross_entropy(logits, labels[idx])
        w -= rate * (feats[idx].T @ grad)
        b -= rate * grad.sum(axis=0)
    return w, b


def invariance_probe(graph: GraphSpec, store, layers, factors,
                     train_inputs, train_labels, val_inputs, val_labels,
                     seed: int, budget: int = 2000, batch: int = 32,
                     rate: float = 0.01) -> ProbeResult:
    """Linear softmax probes on spatially pooled activations.

    factors maps factor name -> number of classes; train_labels/val_labels
    map factor name -> integer label arrays. Activations are pooled to one
    value per channel, so a probe sees only channel statistics. Every
    requested layer is read from one inference pass per split, not one
    per layer.
    """
    for layer in layers:
        if layer != "input" and layer not in graph:
            raise ValueError(f"unknown probe layer {layer!r}")
    train_acts = infer(graph, store, train_inputs, set(layers), PROBE_CHUNK)
    val_acts = infer(graph, store, val_inputs, set(layers), PROBE_CHUNK)
    cells = {}
    for layer in layers:
        ftr64 = _pooled(train_acts[layer]).astype(np.float64)
        fva64 = _pooled(val_acts[layer]).astype(np.float64)
        for factor, num_classes in factors.items():
            probe_seed = derive_seed(seed, "probe", layer, factor)
            w, b = _train_linear_probe(ftr64, train_labels[factor], num_classes,
                                       probe_seed, budget, batch, rate)
            pred = (fva64 @ w + b).argmax(axis=1)
            cells[(layer, factor)] = float((pred == val_labels[factor]).mean())
    return ProbeResult(tuple(layers), tuple(factors), cells, seed)


def format_probe_matrix(result: ProbeResult) -> str:
    lines = [f"# seed={result.seed}", "layer\t" + "\t".join(result.factors)]
    for layer in result.layers:
        vals = "\t".join(repr(result.cells[(layer, f)]) for f in result.factors)
        lines.append(f"{layer}\t{vals}")
    return "\n".join(lines) + "\n"


def format_probe_table(result: ProbeResult) -> str:
    width = max(len(f) for f in result.factors) + 8
    lines = [f"linear-probe accuracy on pooled activations (seed {result.seed})",
             ""]
    header = f"{'layer':<12}" + "".join(f"{f:>{width}}" for f in result.factors)
    lines.append(header)
    lines.append("-" * len(header))
    for layer in result.layers:
        row = f"{layer:<12}"
        for f in result.factors:
            row += f"{result.cells[(layer, f)]:>{width}.4f}"
        lines.append(row)
    return "\n".join(lines) + "\n"


# Pinned desk-study defaults. The budgets were calibrated once on the
# pinned seed and then frozen; see reports/desk_study.txt for the run.
STUDY_SEED = 20260816
TRUNK_MINIBATCHES = 700
FINETUNE_MINIBATCHES = 260


@dataclass
class StudyResult:
    manifest_path: str
    trunk_train_accuracy: float
    grid: GridResult
    probe: object  # ProbeResult or None
    report_paths: dict


def _task_datasets(manifest, tasks):
    train_ids = split_ids(manifest, "train")
    val_ids = split_ids(manifest, "val")
    train_sets, val_sets = {}, {}
    for task in tasks:
        kw = {"num_classes": task.num_classes} \
            if task.label_column == "multilabel" else {}
        xt, yt = load_batch(manifest, train_ids, task.label_column, **kw)
        xv, yv = load_batch(manifest, val_ids, task.label_column, **kw)
        train_sets[task.name] = Dataset(xt, yt)
        val_sets[task.name] = Dataset(xv, yv)
    return train_sets, val_sets


def run_desk_study(out_dir, master_seed: int = STUDY_SEED,
                   trunk_minibatches: int = TRUNK_MINIBATCHES,
                   finetune_minibatches: int = FINETUNE_MINIBATCHES,
                   tasks=DESK_TASKS, include_probe: bool = False,
                   synth_spec: SynthSpec = None) -> StudyResult:
    """End-to-end quarter-scale study: generate data, train the identity
    trunk, run the branch grid (and optionally probes), write reports.

    Deterministic per master_seed: a rerun into a fresh directory produces
    byte-identical datasets, checkpoints and reports.
    """
    os.makedirs(out_dir, exist_ok=True)
    spec = synth_spec or SynthSpec(seed=derive_seed(master_seed, "synth"))
    data_dir = os.path.join(out_dir, "data")
    manifest = generate_synthetic(spec, data_dir)

    arch = ArchConfig.desk(num_identities=spec.num_identities)
    graph = build_trunk(arch)
    trunk_cfg = TrainConfig.desk(seed=derive_seed(master_seed, "trunk"),
                                 max_minibatches=trunk_minibatches)
    store = init_params(graph, trunk_cfg)

    train_ids = split_ids(manifest, "train")
    x_train, y_ident = load_batch(manifest, train_ids, "identity")
    trunk_log = train(graph, store, Dataset(x_train, y_ident), trunk_cfg,
                      loss="softmax")
    trunk_acc = evaluate_accuracy(graph, store, Dataset(x_train, y_ident))

    paths = {"trunk": os.path.join(out_dir, "trunk.ckpt"),
             "trunk_log": os.path.join(out_dir, "trunk_log.tsv"),
             "grid_matrix": os.path.join(out_dir, "grid.tsv"),
             "grid_table": os.path.join(out_dir, "grid.txt"),
             "study": os.path.join(out_dir, "study.txt")}
    save_checkpoint(paths["trunk"], graph, store)
    trunk_log.write(paths["trunk_log"])

    train_sets, val_sets = _task_datasets(manifest, tasks)
    ft_cfg = TrainConfig.desk(max_minibatches=finetune_minibatches)
    grid = branch_grid(graph, store, tasks, train_sets, val_sets, ft_cfg,
                       master_seed)
    with open(paths["grid_matrix"], "w") as f:
        f.write(format_grid_matrix(grid))
    with open(paths["grid_table"], "w") as f:
        f.write(format_grid_table(grid))

    probe = None
    if include_probe:
        val_ids = split_ids(manifest, "val")
        x_val, _ = load_batch(manifest, val_ids)
        factors = {t.name: t.num_classes for t in tasks
                   if t.loss == "softmax"}
        tr_labels = {t.name: np.array([manifest.label(i, t.label_column)
                                       for i in train_ids])
                     for t in tasks if t.loss == "softmax"}
        va_labels = {t.name: np.array([manifest.label(i, t.label_column)
                                       for i in val_ids])
                     for t in tasks if t.loss == "softmax"}
        probe_layers = ("input",) + graph.branch_points
        probe = invariance_probe(graph, store, probe_layers, factors,
                                 x_train, tr_labels, x_val, va_labels,
                                 seed=derive_seed(master_seed, "probe"))
        paths["probe_matrix"] = os.path.join(out_dir, "probe.tsv")
        paths["probe_table"] = os.path.join(out_dir, "probe.txt")
        with open(paths["probe_matrix"], "w") as f:
            f.write(format_probe_matrix(probe))
        with open(paths["probe_table"], "w") as f:
            f.write(format_probe_table(probe))

    summary = _study_summary(master_seed, trunk_cfg, trunk_acc, grid, probe)
    with open(paths["study"], "w") as f:
        f.write(summary)
    return StudyResult(os.path.join(data_dir, "manifest.tsv"), trunk_acc,
                       grid, probe, paths)


def _study_summary(seed, trunk_cfg, trunk_acc, grid: GridResult, probe) -> str:
    lines = ["quarter-scale invariance study", f"master seed: {seed}",
             f"trunk minibatches: {trunk_cfg.max_minibatches}",
             f"trunk training identity accuracy: {trunk_acc!r}", ""]
    for task in grid.tasks:
        best = grid.best_layer(task)
        fc_acc = grid.cells[(grid.layers[-1], task)]
        best_acc = grid.cells[(best, task)]
        lines.append(f"task {task}: best branch {best} at {best_acc:.4f} "
                     f"(final-layer branch: {fc_acc:.4f})")
    lines.append("")
    lines.append(format_grid_table(grid))
    if probe is not None:
        lines.append(format_probe_table(probe))
    return "\n".join(lines)
