"""Command-line surface: thin shells over the module APIs.

Every number a subcommand prints or writes comes from the same API calls
the tests exercise. Failures exit nonzero with a single `error: ...` line
on stderr; argparse handles unknown flags and subcommands with usage text.
"""

import argparse
import os
import sys

import numpy as np

from .accounting import format_cost_table
from .config import load_config, merged, parse_assignments
from .dataio import (Manifest, SynthSpec, generate_synthetic, load_batch,
                     read_tensor, split_ids)
from .evalkit import (VerificationPair, format_operating_point_report,
                      format_verify_report, select_operating_point, verify)
from .experiments import (GridTask, branch_grid, format_grid_matrix,
                          format_grid_table, format_probe_matrix,
                          format_probe_table, invariance_probe)
from .graph import ArchConfig, build_trunk
from .multihead import (HeadSpec, MultiHeadModel, combined_flops,
                        format_prediction_lines, load_bundle, predict_all,
                        save_bundle)
from .params import load_checkpoint, save_checkpoint
from .resolver import Constraints, format_resolution_report, resolve_architecture
from .train import (Dataset, TrainConfig, evaluate_accuracy, finetune,
                    init_params, make_branch, train)

DEFAULT_TARGET_FPR = 0.0103


def _load_mapping(config_path, overrides):
    base = load_config(config_path) if config_path else {}
    return merged(base, parse_assignments(overrides))


def _dataset(manifest_path, label_column, split, num_classes=None):
    manifest = Manifest.load(manifest_path)
    ids = split_ids(manifest, split)
    if not ids:
        raise ValueError(f"no samples in split {split!r} of {manifest_path}")
    kw = {"num_classes": num_classes} if label_column == "multilabel" else {}
    x, y = load_batch(manifest, ids, label_column, **kw)
    return Dataset(x, y), ids


def cmd_arch_resolve(args):
    mapping = _load_mapping(args.constraints, args.set)
    constraints = Constraints.from_mapping(mapping)
    resolution = resolve_architecture(constraints)
    report = format_resolution_report(resolution)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    sys.stdout.write(report)
    if not resolution.candidates:
        print("error: no composition satisfies the hard constraints",
              file=sys.stderr)
        return 1
    return 0


def cmd_flops(args):
    mapping = _load_mapping(args.config, args.set)
    arch = ArchConfig.from_mapping(mapping)
    graph = build_trunk(arch)
    sys.stdout.write(format_cost_table(graph))
    return 0


def cmd_train_base(args):
    mapping = _load_mapping(args.config, args.set)
    arch = ArchConfig.from_mapping(mapping)
    cfg = TrainConfig.from_mapping(mapping)
    graph = build_trunk(arch)
    dataset, _ = _dataset(args.data, args.field, args.split)
    store = init_params(graph, cfg)
    log = train(graph, store, dataset, cfg, loss="softmax")
    save_checkpoint(args.out, graph, store)
    log.write(args.out + ".log.tsv")
    acc = evaluate_accuracy(graph, store, dataset)
    print(f"saved {args.out}; training accuracy {acc!r}")
    return 0


def cmd_finetune(args):
    mapping = _load_mapping(args.config, args.set)
    cfg = TrainConfig.from_mapping(mapping, base=TrainConfig.desk())
    graph, store = load_checkpoint(args.trunk)
    field = args.field or args.task
    dataset, _ = _dataset(args.data, field, args.split,
                          num_classes=args.classes)
    branch = make_branch(graph, store, args.branch, args.classes,
                         loss=args.loss, warm=args.warm,
                         init_std=cfg.init_std, seed=cfg.seed)
    log = finetune(branch, dataset, cfg)
    model = MultiHeadModel(graph, store)
    model.add_head(HeadSpec(args.task, args.branch, args.classes, args.loss),
                   branch.graph, branch.store)
    save_bundle(args.out, model)
    log.write(os.path.join(args.out, f"{args.task}.log.tsv"))
    acc = evaluate_accuracy(branch.graph, branch.store, dataset,
                            loss=args.loss)
    print(f"saved bundle {args.out}; training accuracy {acc!r}")
    return 0


def _parse_tasks_file(path):
    tasks = []
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"task line must be `name column classes "
                                 f"loss`, got {raw!r}")
            tasks.append(GridTask(parts[0], parts[1], int(parts[2]), parts[3]))
    if not tasks:
        raise ValueError(f"no tasks defined in {path}")
    return tasks


def cmd_branch_grid(args):
    mapping = _load_mapping(args.config, args.set)
    cfg = TrainConfig.from_mapping(mapping, base=TrainConfig.desk())
    graph, store = load_checkpoint(args.trunk)
    tasks = _parse_tasks_file(args.tasks)
    train_sets, val_sets = {}, {}
    for task in tasks:
        nc = task.num_classes if task.label_column == "multilabel" else None
        train_sets[task.name], _ = _dataset(args.data, task.label_column,
                                            "train", num_classes=nc)
        val_sets[task.name], _ = _dataset(args.data, task.label_column,
                                          "val", num_classes=nc)
    layers = args.layers.split(",") if args.layers else None
    grid = branch_grid(graph, store, tasks, train_sets, val_sets, cfg,
                       master_seed=cfg.seed, layers=layers)
    with open(args.report, "w") as f:
        f.write(format_grid_matrix(grid))
    sys.stdout.write(format_grid_table(grid))
    return 0


def cmd_predict(args):
    model = load_bundle(args.bundle)
    manifest = Manifest.load(args.data)
    ids = split_ids(manifest, args.split)
    lines = []
    for lo in range(0, len(ids), args.batch_size):
        chunk = ids[lo:lo + args.batch_size]
        x, _ = load_batch(manifest, chunk)
        pred = predict_all(model, x)
        lines.extend(format_prediction_lines(chunk, pred, model.heads))
    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as f:
        f.write(text)
    total, per_head = combined_flops(model)
    print(f"wrote {len(ids)} predictions to {args.out}; combined cost "
          f"{total:,} macs ({len(per_head)} heads)")
    return 0


def cmd_eval_verify(args):
    table = read_tensor(args.embeddings)
    if table.ndim != 2:
        raise ValueError(f"embeddings must be a rank-2 container (rows are "
                         f"vectors), got rank {table.ndim}")
    pairs = []
    with open(args.pairs) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"pair line must be `id_a id_b same split`, "
                                 f"got {raw!r}")
            ia, ib, same, split = (int(p) for p in parts)
            if not (0 <= ia < len(table) and 0 <= ib < len(table)):
                raise ValueError(f"pair ids {ia},{ib} outside embedding table "
                                 f"of {len(table)} rows")
            pairs.append(VerificationPair(table[ia], table[ib], bool(same),
                                          split))
    result = verify(pairs)
    report = format_verify_report(result)
    with open(args.report, "w") as f:
        f.write(report)
    sys.stdout.write(report)
    return 0


def cmd_operating_point(args):
    scores = read_tensor(args.scores)
    labels = read_tensor(args.labels)
    op = select_operating_point(scores, labels, args.target_fpr)
    report = format_operating_point_report(op, args.target_fpr)
    with open(args.report, "w") as f:
        f.write(report)
    sys.stdout.write(report)
    return 0


def _parse_factors(text):
    factors, columns = {}, {}
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"factor must be name:column:classes, got {part!r}")
        factors[fields[0]] = int(fields[2])
        columns[fields[0]] = fields[1]
    return factors, columns


def cmd_probe(args):
    graph, store = load_checkpoint(args.trunk)
    manifest = Manifest.load(args.data)
    factors, columns = _parse_factors(args.factors)
    train_ids = split_ids(manifest, "train")
    val_ids = split_ids(manifest, "val")
    x_train, _ = load_batch(manifest, train_ids)
    x_val, _ = load_batch(manifest, val_ids)
    tr = {f: np.array([manifest.label(i, c) for i in train_ids])
          for f, c in columns.items()}
    va = {f: np.array([manifest.label(i, c) for i in val_ids])
          for f, c in columns.items()}
    layers = args.layers.split(",")
    result = invariance_probe(graph, store, layers, factors, x_train, tr,
                              x_val, va, seed=args.seed)
    with open(args.report, "w") as f:
        f.write(format_probe_matrix(result))
    sys.stdout.write(format_probe_table(result))
    return 0


def cmd_synth(args):
    mapping = _load_mapping(args.spec, args.set)
    spec = SynthSpec.from_mapping(mapping)
    manifest = generate_synthetic(spec, args.out)
    print(f"wrote {len(manifest.ids)} samples under {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="branchnet",
        description="residual trunk with branchable task heads: training, "
                    "fine-tuning, accounting and evaluation tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        return p

    p = add("arch-resolve", cmd_arch_resolve,
            "enumerate and rank stage compositions")
    p.add_argument("--constraints", help="constraints config file")
    p.add_argument("--report", help="also write the report here")

    p = add("flops", cmd_flops, "per-layer parameter and cost table")
    p.add_argument("--config", help="architecture config file")

    p = add("train-base", cmd_train_base, "train the identity trunk")
    p.add_argument("--config", help="arch + training config file")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--field", default="identity", help="label column")
    p.add_argument("--split", default="train")

    p = add("finetune", cmd_finetune, "fine-tune one branch head")
    p.add_argument("--trunk", required=True, help="trunk checkpoint")
    p.add_argument("--branch", required=True, help="branch layer name")
    p.add_argument("--task", required=True, help="task name")
    p.add_argument("--classes", required=True, type=int)
    p.add_argument("--loss", default="softmax",
                   choices=["softmax", "sigmoid-multilabel"])
    p.add_argument("--field", help="label column (defaults to task name)")
    p.add_argument("--warm", action="store_true",
                   help="copy retrained layers from the trunk instead of "
                        "re-initializing")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--config", help="training config file")
    p.add_argument("--split", default="train")

    p = add("branch-grid", cmd_branch_grid, "fine-tune at every branch depth")
    p.add_argument("--trunk", required=True)
    p.add_argument("--tasks", required=True,
                   help="file of `name column classes loss` lines")
    p.add_argument("--data", required=True)
    p.add_argument("--layers", help="comma-separated branch layers "
                                    "(default: all)")
    p.add_argument("--report", required=True, help="matrix output path")
    p.add_argument("--config", help="training config file")

    p = add("predict", cmd_predict, "run a multi-head bundle over a manifest")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="all")
    p.add_argument("--batch-size", type=int, default=64)

    p = add("eval-verify", cmd_eval_verify, "split-based verification")
    p.add_argument("--pairs", required=True,
                   help="text file of `id_a id_b same split` rows")
    p.add_argument("--embeddings", required=True,
                   help="rank-2 tensor container; ids index its rows")
    p.add_argument("--report", required=True)

    p = add("operating-point", cmd_operating_point,
            "pick a global score threshold under an fpr target")
    p.add_argument("--scores", required=True, help="rank-2 tensor container")
    p.add_argument("--labels", required=True, help="rank-2 tensor container")
    p.add_argument("--target-fpr", type=float, default=DEFAULT_TARGET_FPR)
    p.add_argument("--report", required=True)

    p = add("probe", cmd_probe, "linear probes on pooled activations")
    p.add_argument("--trunk", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layers", required=True, help="comma-separated layer "
                                                   "names; `input` allowed")
    p.add_argument("--factors", default="nuisance:nuisance:7,binary:binary:2",
                   help="comma-separated name:column:classes triples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)

    p = add("synth", cmd_synth, "generate the synthetic dataset")
    p.add_argument("--spec", help="synthetic-spec config file")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
