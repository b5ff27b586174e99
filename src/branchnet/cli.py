"""Command-line surface: thin shells over the module APIs.

Every number a subcommand prints or writes comes from the same API calls
the tests exercise. A ValueError or OSError exits 2 with a single
`error: ...` line on stderr; any other exception is a defect and shows its
traceback. argparse handles unknown flags and subcommands with usage text.
"""

import argparse
import os
import sys

from .accounting import format_cost_table
from .config import load_config, load_records, parse_assignments, parse_value
from .dataio import (Manifest, SynthSpec, generate_synthetic, load_batch,
                     read_tensor, split_ids)
from .evalkit import (PairRecord, VerificationPair,
                      format_operating_point_report, format_verify_report,
                      select_operating_point, verify)
from .experiments import (GridTask, ProbeFactor, branch_grid,
                          format_grid_matrix, format_grid_table,
                          format_probe_matrix, format_probe_table,
                          invariance_probe, load_tasks)
from .graph import LOSS_KINDS, ArchConfig, build_trunk
from .multihead import (HeadSpec, MultiHeadModel, combined_flops,
                        format_prediction_lines, load_bundle, predict_all,
                        save_bundle)
from .params import load_checkpoint, save_checkpoint
from .resolver import Constraints, format_resolution_report, resolve_architecture
from .train import (TrainConfig, evaluate_accuracy, finetune, init_params,
                    make_branch, train)

DEFAULT_TARGET_FPR = 0.0103


def _load_mapping(config_path, overrides):
    base = load_config(config_path) if config_path else {}
    return {**base, **parse_assignments(overrides)}


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
    task = GridTask(args.field, args.field, arch.num_identities)
    manifest = Manifest.load(args.data)
    [dataset] = load_tasks(manifest, [task], args.split).values()
    store = init_params(graph, cfg)
    log = train(graph, store, dataset, cfg)
    save_checkpoint(args.out, graph, store)
    log.write(args.out + ".log.tsv")
    acc = evaluate_accuracy(graph, store, dataset)
    print(f"saved {args.out}; training accuracy {acc!r}")
    return 0


def cmd_finetune(args):
    spec = HeadSpec(args.task, args.branch, args.classes, args.loss)
    mapping = _load_mapping(args.config, args.set)
    cfg = TrainConfig.from_mapping(mapping, base=TrainConfig.desk())
    graph, store = load_checkpoint(args.trunk)
    task = GridTask(args.task, args.field or args.task, args.classes,
                    args.loss)
    manifest = Manifest.load(args.data)
    [dataset] = load_tasks(manifest, [task], args.split).values()
    branch = make_branch(graph, store, args.branch, args.classes,
                         loss=args.loss, warm=args.warm,
                         init_std=cfg.init_std, seed=cfg.seed)
    log = finetune(branch, dataset, cfg)
    model = MultiHeadModel(graph, store)
    model.add_head(spec, branch.graph, branch.store)
    save_bundle(args.out, model)
    log.write(os.path.join(args.out, f"{args.task}.log.tsv"))
    acc = evaluate_accuracy(branch.graph, branch.store, dataset)
    print(f"saved bundle {args.out}; training accuracy {acc!r}")
    return 0


def cmd_branch_grid(args):
    mapping = _load_mapping(args.config, args.set)
    cfg = TrainConfig.from_mapping(mapping, base=TrainConfig.desk())
    graph, store = load_checkpoint(args.trunk)
    tasks = load_records(GridTask, args.tasks)
    manifest = Manifest.load(args.data)
    train_sets = load_tasks(manifest, tasks, "train")
    val_sets = load_tasks(manifest, tasks, "val")
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
    if ids:  # one pass: engine.infer alone cuts the split into chunks
        x, _ = load_batch(manifest, ids)
        lines = format_prediction_lines(ids, predict_all(model, x), model.heads)
    with open(args.out, "w") as f:
        f.write("".join(f"{line}\n" for line in lines))
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
    for p in load_records(PairRecord, args.pairs):
        if not (0 <= p.id_a < len(table) and 0 <= p.id_b < len(table)):
            raise ValueError(f"pair ids {p.id_a},{p.id_b} outside embedding "
                             f"table of {len(table)} rows")
        pairs.append(VerificationPair(table[p.id_a], table[p.id_b],
                                      bool(p.same), p.split))
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


def cmd_probe(args):
    graph, store = load_checkpoint(args.trunk)
    manifest = Manifest.load(args.data)
    try:
        parsed = parse_value(tuple[ProbeFactor, ...], args.factors)
    except ValueError as exc:
        raise ValueError(f"--factors: {exc}") from None
    tasks = [GridTask(f.name, f.column, f.num_classes) for f in parsed]
    train_sets = load_tasks(manifest, tasks, "train")
    val_sets = load_tasks(manifest, tasks, "val")
    result = invariance_probe(
        graph, store, args.layers.split(","),
        {t.name: t.num_classes for t in tasks},
        train_sets[tasks[0].name].inputs,
        {n: d.labels for n, d in train_sets.items()},
        val_sets[tasks[0].name].inputs,
        {n: d.labels for n, d in val_sets.items()}, seed=args.seed)
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

    def add(name, fn, help_text, overrides=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if overrides:
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key")
        return p

    p = add("arch-resolve", cmd_arch_resolve,
            "enumerate and rank stage compositions", overrides=True)
    p.add_argument("--constraints", help="constraints config file")
    p.add_argument("--report", help="also write the report here")

    p = add("flops", cmd_flops, "per-layer parameter and cost table",
            overrides=True)
    p.add_argument("--config", help="architecture config file")

    p = add("train-base", cmd_train_base, "train the identity trunk",
            overrides=True)
    p.add_argument("--config", help="arch + training config file")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--field", default="identity", help="label column")
    p.add_argument("--split", default="train")

    p = add("finetune", cmd_finetune, "fine-tune one branch head", overrides=True)
    p.add_argument("--trunk", required=True, help="trunk checkpoint")
    p.add_argument("--branch", required=True, help="branch layer name")
    p.add_argument("--task", required=True, help="task name")
    p.add_argument("--classes", required=True, type=int)
    p.add_argument("--loss", default="softmax", choices=LOSS_KINDS)
    p.add_argument("--field", help="label column (defaults to task name)")
    p.add_argument("--warm", action="store_true",
                   help="copy retrained layers from the trunk instead of "
                        "re-initializing")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--config", help="training config file")
    p.add_argument("--split", default="train")

    p = add("branch-grid", cmd_branch_grid, "fine-tune at every branch depth",
            overrides=True)
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

    p = add("synth", cmd_synth, "generate the synthetic dataset",
            overrides=True)
    p.add_argument("--spec", help="synthetic-spec config file")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # an OSError's args start with its errno; its text names the file
        msg = exc.args[0] if exc.args and not isinstance(exc, OSError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
