"""Experiments over a trained trunk: the branch-depth grid, linear probes,
and the desk-scale invariance study.

Every experiment entry point loads its labelled data through load_tasks,
which reads a split's tensors once and gives each GridTask its labels, and
both the grid and the probes return a GridResult: one held-out accuracy
per (layer, column).

Every grid cell and probe gets its own seed derived from (master seed,
coordinates), so cells are independent jobs and the assembled result does
not depend on execution order. Best-cell selection breaks ties toward the
deepest layer: a shallow branch must strictly beat a deep one to claim the
row, since deeper branches are cheaper to fine-tune and serve.
"""

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .common import derive_rng, derive_seed
from .dataio import (SynthSpec, generate_synthetic, load_batch, load_labels,
                     split_ids)
from .engine import boundary, infer
from .graph import INPUT_NAME, ArchConfig, GraphSpec, build_trunk, check_task
from .params import save_checkpoint
from .train import (Dataset, TrainConfig, evaluate_accuracy, finetune,
                    init_params, make_branch, train)

# Reference accuracies shown alongside grid reports for orientation only;
# they come from a full-scale study on real face data and are never
# asserted against desk-scale synthetic results.
REFERENCE_CELLS = (("emotion", "conv19", 0.68), ("age", "conv22", 0.40),
                   ("ethnicity", "fc", 0.72), ("gender", "fc", 0.99))
PROBE_RATE = 0.01  # step size of every linear probe's gradient descent
PROBE_BATCH = 32  # samples per linear-probe gradient step


@dataclass(frozen=True)
class GridTask:
    """A labelled task: its name, the manifest column its labels come from,
    its class count and its loss. A line of a branch-grid task table, a
    probe factor or the trunk's identity labels."""

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


def _once(items, what):
    """ValueError naming the first of items that is given twice."""
    for item in items:
        if items.count(item) > 1:
            raise ValueError(f"{what} {item!r} is given twice")


def load_tasks(manifest, tasks, split) -> dict:
    """{task name: Dataset} over one split of the manifest. The split's
    tensors are read once and every Dataset holds that one inputs array;
    each task's labels come from its label column, as bitmasks for a
    sigmoid-multilabel task and class indices otherwise."""
    names = [t.name for t in tasks]
    if not names:
        raise ValueError("no tasks given")
    _once(names, "task name")
    ids = split_ids(manifest, split)
    if not ids:
        raise ValueError(f"no samples in split {split!r} of the manifest in "
                         f"{manifest.root}")
    inputs, _ = load_batch(manifest, ids)
    return {t.name: Dataset(inputs, load_labels(
                manifest, ids, t.label_column,
                t.num_classes if t.loss == "sigmoid-multilabel" else None))
            for t in tasks}


@dataclass
class GridResult:
    """A layer table: branch-grid tasks or probe factors as its columns."""

    layers: tuple
    columns: tuple
    cells: dict          # (layer, column) -> held-out accuracy
    seed: int

    def best_layer(self, column: str) -> str:
        """Deepest layer among the accuracy maxima for the column."""
        best, best_acc = None, -1.0
        for layer in self.layers:
            acc = self.cells[(layer, column)]
            if acc >= best_acc:
                best, best_acc = layer, acc
        return best


def branch_grid(graph: GraphSpec, store, tasks, train_sets, val_sets,
                config: TrainConfig, master_seed: int,
                layers=None) -> GridResult:
    """Fine-tune one branch per (layer, task) cell and score it held out.

    train_sets/val_sets map task name -> Dataset (load_tasks). Each cell
    derives its own seed from (master_seed, "grid", layer, task); a cell's
    ValueError is re-raised as one with the cell coordinates attached, and
    any other exception, a defect, passes through unchanged.

    Every cell's branch shares the store's frozen prefix, so the grid runs
    it once per distinct inputs array: one engine.infer pass keeps the
    boundary of every requested layer, and each cell trains and scores
    from those activations, the bits train() and evaluate_accuracy would
    compute alone. A layer given twice is a ValueError.
    """
    layers = tuple(layers) if layers is not None else graph.branch_points
    _once(layers, "layer")
    keep = set().union(*(boundary(graph, graph.branch_index(layer))
                         for layer in layers)) - {INPUT_NAME}
    passes = {}  # id of an inputs array -> its boundary activations

    def cached(dataset):
        key = id(dataset.inputs)
        if key not in passes:
            passes[key] = infer(graph, store, {INPUT_NAME: dataset.inputs},
                                keep)
        return replace(dataset, activations=passes[key])

    cells = {}
    for layer in layers:
        for task in tasks:
            cell_seed = derive_seed(master_seed, "grid", layer, task.name)
            try:
                branch = make_branch(graph, store, layer, task.num_classes,
                                     loss=task.loss, init_std=config.init_std,
                                     seed=cell_seed)
                finetune(branch, cached(train_sets[task.name]),
                         replace(config, seed=cell_seed))
                acc = evaluate_accuracy(branch.graph, branch.store,
                                        cached(val_sets[task.name]))
            except ValueError as exc:
                raise ValueError(f"grid cell ({layer}, {task.name}) failed: "
                                 f"{exc}") from exc
            cells[(layer, task.name)] = acc
    return GridResult(layers, tuple(t.name for t in tasks), cells, master_seed)


def format_grid_matrix(result: GridResult) -> str:
    """Tab-separated cells at full precision, for a grid or a probe."""
    lines = [f"# seed={result.seed}", "layer\t" + "\t".join(result.columns)]
    for layer in result.layers:
        vals = "\t".join(repr(result.cells[(layer, c)])
                         for c in result.columns)
        lines.append(f"{layer}\t{vals}")
    return "\n".join(lines) + "\n"


format_probe_matrix = format_grid_matrix


def _layer_table(result: GridResult, best=None) -> list:
    """Header, rule and a row per layer. Given best (column -> layer), each
    cell ends in "*" at its column's best layer and " " elsewhere."""
    width = max(len(c) for c in result.columns) + 8
    header = f"{'layer':<12}" + "".join(f"{c:>{width}}" for c in result.columns)
    lines = [header, "-" * len(header)]
    for layer in result.layers:
        row = f"{layer:<12}"
        for c in result.columns:
            mark = "" if best is None else "*" if best[c] == layer else " "
            row += f"{result.cells[(layer, c)]:>{width - len(mark)}.4f}{mark}"
        lines.append(row)
    return lines


def format_grid_table(grid: GridResult) -> str:
    """Human-readable grid; the best cell per task column is starred, and
    REFERENCE_CELLS follow for orientation."""
    best = {t: grid.best_layer(t) for t in grid.columns}
    lines = [f"branch-depth grid (seed {grid.seed}); columns starred at the "
             f"best layer, ties to the deepest", ""] + _layer_table(grid, best)
    lines += ["", "full-scale reference points, shown for orientation only "
              "(different data and scale; never asserted):"]
    lines += [f"  {task} best at {layer}: {acc:.2f}"
              for task, layer, acc in REFERENCE_CELLS]
    return "\n".join(lines) + "\n"


def _pooled(a):
    """Activations pooled to one value per channel."""
    return a.mean(axis=(1, 2)) if a.ndim == 4 else a


def _train_linear_probe(feats, labels, num_classes, seed, budget):
    n, d = feats.shape
    w = np.zeros((d, num_classes), dtype=np.float64)
    b = np.zeros(num_classes, dtype=np.float64)
    for t in range(budget):
        rng = derive_rng(seed, "probe-batch", t)
        idx = rng.choice(n, size=PROBE_BATCH, replace=n < PROBE_BATCH)
        logits = feats[idx] @ w + b
        _, _, grad = ops.softmax_cross_entropy(logits, labels[idx])
        w -= PROBE_RATE * (feats[idx].T @ grad)
        b -= PROBE_RATE * grad.sum(axis=0)
    return w, b


def invariance_probe(graph: GraphSpec, store, layers, factors,
                     train_inputs, train_labels, val_inputs, val_labels,
                     seed: int, budget: int = 2000) -> GridResult:
    """Linear softmax probes on spatially pooled activations.

    factors maps factor name -> number of classes; train_labels/val_labels
    map factor name -> integer label arrays. Activations are pooled to one
    value per channel, so a probe sees only channel statistics. Every
    requested layer is read from one engine.infer pass per split, not one
    per layer. An unknown layer, one given twice, or an empty training or
    held-out input array is a ValueError.
    """
    for what, inputs in (("training", train_inputs), ("held-out", val_inputs)):
        if len(inputs) == 0:
            raise ValueError(f"invariance_probe needs {what} inputs, got none")
    for layer in layers:
        if layer != "input" and layer not in graph:
            raise ValueError(f"unknown probe layer {layer!r}")
    _once(layers, "layer")
    train_acts = infer(graph, store, {INPUT_NAME: train_inputs}, set(layers))
    val_acts = infer(graph, store, {INPUT_NAME: val_inputs}, set(layers))
    cells = {}
    for layer in layers:
        ftr64 = _pooled(train_acts[layer]).astype(np.float64)
        fva64 = _pooled(val_acts[layer]).astype(np.float64)
        for factor, num_classes in factors.items():
            probe_seed = derive_seed(seed, "probe", layer, factor)
            w, b = _train_linear_probe(ftr64, train_labels[factor], num_classes,
                                       probe_seed, budget)
            pred = (fva64 @ w + b).argmax(axis=1)
            cells[(layer, factor)] = float((pred == val_labels[factor]).mean())
    return GridResult(tuple(layers), tuple(factors), cells, seed)


def format_probe_table(result: GridResult) -> str:
    lines = [f"linear-probe accuracy on pooled activations (seed {result.seed})",
             ""] + _layer_table(result)
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
    probe: GridResult
    report_paths: dict
    seconds: dict  # wall seconds of each phase and of the whole run


def _timed(seconds, phase, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall seconds recorded as seconds[phase]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds[phase] = time.perf_counter() - t0
    return out


def run_desk_study(out_dir, master_seed: int = STUDY_SEED) -> StudyResult:
    """End-to-end quarter-scale study: generate data, train the identity
    trunk for TRUNK_MINIBATCHES steps, run the branch grid at
    FINETUNE_MINIBATCHES steps per cell and the probes, write reports.
    Each split's tensors are read once; the trunk trains on the train
    split's "identity" task, beside the grid's DESK_TASKS.

    Deterministic per master_seed: a rerun into a fresh directory produces
    byte-identical datasets, checkpoints and reports. The result's seconds
    hold the wall time of the trunk's train (trunk_s), its
    evaluate_accuracy (evaluation_s), branch_grid (grid_s),
    invariance_probe (probe_s) and the whole run (total_s); no file
    records them.
    """
    start, seconds = time.perf_counter(), {}
    os.makedirs(out_dir, exist_ok=True)
    spec = SynthSpec(seed=derive_seed(master_seed, "synth"))
    data_dir = os.path.join(out_dir, "data")
    manifest = generate_synthetic(spec, data_dir)

    arch = ArchConfig.desk(num_identities=spec.num_identities)
    graph = build_trunk(arch)
    trunk_cfg = TrainConfig.desk(seed=derive_seed(master_seed, "trunk"),
                                 max_minibatches=TRUNK_MINIBATCHES)
    store = init_params(graph, trunk_cfg)

    identity = GridTask("identity", "identity", spec.num_identities)
    train_sets = load_tasks(manifest, (identity,) + DESK_TASKS, "train")
    val_sets = load_tasks(manifest, DESK_TASKS, "val")
    trunk_log = _timed(seconds, "trunk_s", train, graph, store,
                       train_sets["identity"], trunk_cfg)
    trunk_acc = _timed(seconds, "evaluation_s", evaluate_accuracy, graph,
                       store, train_sets["identity"])

    paths = {"trunk": os.path.join(out_dir, "trunk.ckpt"),
             "trunk_log": os.path.join(out_dir, "trunk_log.tsv"),
             "grid_matrix": os.path.join(out_dir, "grid.tsv"),
             "grid_table": os.path.join(out_dir, "grid.txt"),
             "study": os.path.join(out_dir, "study.txt")}
    save_checkpoint(paths["trunk"], graph, store)
    trunk_log.write(paths["trunk_log"])

    ft_cfg = TrainConfig.desk(max_minibatches=FINETUNE_MINIBATCHES)
    grid = _timed(seconds, "grid_s", branch_grid, graph, store, DESK_TASKS,
                  train_sets, val_sets, ft_cfg, master_seed)
    with open(paths["grid_matrix"], "w") as f:
        f.write(format_grid_matrix(grid))
    with open(paths["grid_table"], "w") as f:
        f.write(format_grid_table(grid))

    factors = {t.name: t.num_classes for t in DESK_TASKS if t.loss == "softmax"}
    probe = _timed(
        seconds, "probe_s", invariance_probe, graph, store,
        ("input",) + graph.branch_points, factors,
        train_sets["identity"].inputs,
        {f: train_sets[f].labels for f in factors},
        val_sets[DESK_TASKS[0].name].inputs,
        {f: val_sets[f].labels for f in factors},
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
    seconds["total_s"] = time.perf_counter() - start
    return StudyResult(os.path.join(data_dir, "manifest.tsv"), trunk_acc,
                       grid, probe, paths, seconds)


def _study_summary(seed, trunk_cfg, trunk_acc, grid: GridResult, probe) -> str:
    lines = ["quarter-scale invariance study", f"master seed: {seed}",
             f"trunk minibatches: {trunk_cfg.max_minibatches}",
             f"trunk training identity accuracy: {trunk_acc!r}", ""]
    for task in grid.columns:
        best = grid.best_layer(task)
        fc_acc = grid.cells[(grid.layers[-1], task)]
        best_acc = grid.cells[(best, task)]
        lines.append(f"task {task}: best branch {best} at {best_acc:.4f} "
                     f"(final-layer branch: {fc_acc:.4f})")
    lines.append("")
    lines.append(format_grid_table(grid))
    lines.append(format_probe_table(probe))
    return "\n".join(lines)
