"""Acceptance gate: ten release checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line;
without -s pytest still shows the lines for any failing check. Each check
prints PASS or FAIL with its measured numbers before asserting, so a red
run documents exactly what was measured.

Check 05 is expected to fail: the combined four-head budget sits at
1.3094x the trunk, and that ratio is composition-invariant across the
whole admissible architecture family (see reports/arch_resolution.txt).
The assertion states the intended budget rather than the achievable one.
"""

import os
import time

import numpy as np
import pytest

import gradsuites
import oracles
from branchnet.accounting import branch_trainable_params, count_flops, suffix_macs
from branchnet.cli import main as cli_main
from branchnet.common import derive_seed
from branchnet.dataio import Manifest, load_batch, read_tensor, split_ids, write_tensor
from branchnet.engine import forward_pass
from branchnet.evalkit import (VerificationPair, cosine_similarity,
                               select_operating_point, verify)
from branchnet.experiments import run_desk_study
from branchnet.graph import ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel, combined_flops,
                                 predict_all, run_head_standalone)
from branchnet.params import frozen_checksum, load_checkpoint
from branchnet.resolver import Constraints, resolve_architecture
from branchnet.train import (Dataset, TrainConfig, finetune, init_params,
                             lr_at, make_branch)


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_study")
    t0 = time.perf_counter()
    result = run_desk_study(str(out), include_probe=True)
    return result, time.perf_counter() - t0


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = gradsuites.run_all(range(20))
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak < 1e-5 and elapsed < 120.0
    verdict(1, "gradient correctness", ok,
            f"worst rel err {peak:.2e} over {len(worst)} ops x 20 seeds, "
            f"{elapsed:.1f}s")
    assert peak < 1e-5, worst
    assert elapsed < 120.0


def test_02_architecture_resolution():
    t0 = time.perf_counter()
    resolution = resolve_architecture(Constraints())
    elapsed = time.perf_counter() - t0
    cands = resolution.candidates
    windows_ok = all(
        8_500_000 <= c.params <= 10_500_000 and c.conventions
        and 800_000_000 <= c.macs <= 1_000_000_000
        for c in cands)
    top = cands[0] if cands else None
    convs_24 = False
    residuals = ()
    if top is not None:
        graph = build_trunk(ArchConfig(stage_repeats=top.stage_repeats))
        convs_24 = sum(1 for n in graph.nodes if n.kind == "conv"
                       and not n.name.startswith("shortcut")) == 24
        residuals = top.residuals
    ok = (bool(cands) and windows_ok and convs_24 and len(residuals) == 2
          and elapsed < 60.0)
    detail = (f"{len(cands)} candidates, top {top.stage_repeats if top else None}"
              f" params {top.params if top else 0:,},"
              f" residuals {[r[-1] for r in residuals]} (reported, not asserted),"
              f" {elapsed:.1f}s")
    verdict(2, "architecture resolution", ok, detail)
    assert cands, "no candidate satisfied the hard constraints"
    assert windows_ok
    assert convs_24
    assert len(residuals) == 2  # computed and reported, never asserted to zero
    assert elapsed < 60.0


def test_03_exact_head_parameter_counts():
    graph = build_trunk(ArchConfig())
    two = branch_trainable_params(graph, "fc", 2)
    nine = branch_trainable_params(graph, "fc", 9)
    ok = two == 642 and nine == 2889
    verdict(3, "exact head parameter counts", ok,
            f"fc 2-way {two}, fc 9-way {nine}")
    assert two == 642
    assert nine == 2889


HEAD_SPECS = (("nuisance", "conv19", 7, "softmax"),
              ("stage", "conv22", 14, "softmax"),
              ("tags", "fc", 9, "sigmoid-multilabel"),
              ("binary", "fc", 2, "softmax"))


def _desk_model():
    graph = build_trunk(ArchConfig.desk(num_identities=12))
    store = init_params(graph, TrainConfig.desk(seed=31))
    warm = np.random.default_rng(8).standard_normal((8, 1, 56, 56)) \
        .astype(np.float32)
    _, updates = forward_pass(graph, store, warm, mode="train")
    store.running.update(updates)
    model = MultiHeadModel(graph, store)
    for i, (task, layer, k, loss) in enumerate(HEAD_SPECS):
        br = make_branch(graph, store, layer, k, loss=loss, seed=100 + i)
        _, upd = forward_pass(br.graph, br.store, warm, mode="train",
                              train_from=br.branch_index)
        br.store.running.update(upd)
        model.add_head(HeadSpec(task, layer, k, loss), br.graph, br.store)
    return model


def test_04_shared_trunk_equivalence():
    model = _desk_model()
    rng = np.random.default_rng(404)
    stats = {}
    mismatches = 0
    for _ in range(100):
        x = rng.standard_normal((1, 1, 56, 56)).astype(np.float32)
        pred = predict_all(model, x, stats=stats)
        for head in model.heads:
            if not np.array_equal(pred.tasks[head.spec.task].scores,
                                  run_head_standalone(head, x)):
                mismatches += 1
    ok = mismatches == 0 and stats["trunk_forwards"] == 100
    verdict(4, "shared-trunk equivalence", ok,
            f"{mismatches} bitwise mismatches over 100 inputs x "
            f"{len(model.heads)} heads, trunk ran {stats['trunk_forwards']}x")
    assert mismatches == 0
    assert stats["trunk_forwards"] == 100


def test_05_combined_cost_budget():
    graph = build_trunk(ArchConfig())
    store = init_params(graph, TrainConfig(seed=0))
    model = MultiHeadModel(graph, store)
    for i, (task, layer, k, loss) in enumerate(HEAD_SPECS):
        br = make_branch(graph, store, layer, k, loss=loss, seed=i)
        model.add_head(HeadSpec(task, layer, k, loss), br.graph, br.store)
    combined, per_head = combined_flops(model)
    trunk = count_flops(graph).total_macs
    ratio = combined / trunk
    ok = combined < 1.3 * trunk
    verdict(5, "combined-cost budget", ok,
            f"combined {combined:,} macs vs trunk {trunk:,} macs: "
            f"ratio {ratio:.4f} vs budget 1.3, mac convention, "
            f"heads {sorted(per_head)}")
    # The minimum achievable ratio for this family is 1.3094 at every
    # admissible stage composition; the budget line is asserted as stated,
    # so this check documents the miss instead of hiding it.
    assert combined < 1.3 * trunk, (
        f"combined {combined:,} = {ratio:.10f} x trunk; the excess is "
        f"composition-invariant (see reports/arch_resolution.txt)")


def test_06_freeze_invariance(study):
    result, _ = study
    graph, store = load_checkpoint(result.report_paths["trunk"])
    manifest = Manifest.load(result.manifest_path)
    x, y = load_batch(manifest, split_ids(manifest, "train"), "binary")
    dataset = Dataset(x, y)
    t0 = time.perf_counter()
    changed = []
    for layer in graph.branch_points:
        seed = derive_seed(606, "freeze", layer)
        branch = make_branch(graph, store, layer, 2, loss="softmax", seed=seed)
        before = frozen_checksum(branch.graph, branch.store,
                                 branch.branch_index)
        cfg = TrainConfig.desk(max_minibatches=100, seed=seed)
        finetune(branch, dataset, cfg)
        after = frozen_checksum(branch.graph, branch.store,
                                branch.branch_index)
        if before != after:
            changed.append(layer)
    elapsed = time.perf_counter() - t0
    ok = not changed and elapsed < 300.0
    verdict(6, "freeze invariance", ok,
            f"checksum stable at {len(graph.branch_points)} depths x 100 "
            f"steps, changed={changed}, {elapsed:.1f}s")
    assert not changed
    assert elapsed < 300.0


def _verify_instance(rng, n_pairs):
    n_splits = int(rng.integers(2, 5))
    sims = rng.uniform(-1.0, 1.0, n_pairs)
    if rng.random() < 0.5:
        sims = sims.round(2)  # force ties
    labels = rng.random(n_pairs) < 0.5
    splits = np.asarray(rng.permutation(np.arange(n_pairs) % n_splits))
    pairs = []
    for s, same, split in zip(sims, labels, splits):
        theta = np.arccos(np.clip(s, -1.0, 1.0))
        pairs.append(VerificationPair(np.array([1.0, 0.0]),
                                      np.array([np.cos(theta), np.sin(theta)]),
                                      bool(same), int(split)))
    return pairs, labels, splits


def test_07_protocol_oracles():
    rng = np.random.default_rng(20260816)
    verify_mismatch = op_mismatch = fpr_violations = 0
    for i in range(50):
        n = 2000 if i >= 47 else int(rng.integers(20, 201))
        pairs, labels, splits = _verify_instance(rng, n)
        result = verify(pairs)
        sims = np.array([cosine_similarity(p.embedding_a, p.embedding_b)
                         for p in pairs])
        expected = oracles.verify_sweep(sims, labels, splits)
        got = [(s.split, s.threshold, s.accuracy) for s in result.splits]
        if got != expected:
            verify_mismatch += 1
    for i in range(50):
        n = 2000 if i >= 47 else int(rng.integers(20, 201))
        k = int(rng.integers(2, 5))
        scores = rng.random((n, k))
        if rng.random() < 0.5:
            scores = scores.round(2)
        labels = rng.random((n, k)) < rng.uniform(0.1, 0.5)
        if labels.all():
            labels[0, 0] = False
        target = float(rng.uniform(0.0, 0.3))
        op = select_operating_point(scores, labels.astype(float), target)
        expected = oracles.operating_point_sweep(scores, labels, target)
        if (op.threshold, op.tpr, op.fpr, op.abstain_rate) != expected:
            op_mismatch += 1
        if op.fpr > target:
            fpr_violations += 1
    ok = verify_mismatch == op_mismatch == fpr_violations == 0
    verdict(7, "protocol oracles", ok,
            f"50+50 randomized instances up to n=2000: "
            f"{verify_mismatch} verify mismatches, {op_mismatch} operating-"
            f"point mismatches, {fpr_violations} fpr violations")
    assert verify_mismatch == 0
    assert op_mismatch == 0
    assert fpr_violations == 0


def test_08_invariance_conflict_study(study):
    result, elapsed = study
    grid = result.grid
    order = list(grid.layers)
    nuisance_best = grid.best_layer("nuisance")
    binary_best = grid.best_layer("binary")
    margin = (grid.cells[(nuisance_best, "nuisance")]
              - grid.cells[("fc", "nuisance")])
    earlier = order.index(nuisance_best) < order.index("fc")
    ok = (result.trunk_train_accuracy >= 0.95 and earlier and margin >= 0.05
          and binary_best in ("fc", "conv-bn320") and elapsed < 1800.0)
    verdict(8, "invariance-conflict study", ok,
            f"trunk acc {result.trunk_train_accuracy:.4f}, nuisance best "
            f"{nuisance_best} (+{margin:.4f} over fc), binary best "
            f"{binary_best}, {elapsed:.0f}s")
    assert result.trunk_train_accuracy >= 0.95
    assert earlier, f"nuisance best {nuisance_best} is not earlier than fc"
    assert margin >= 0.05
    assert binary_best in ("fc", "conv-bn320")
    assert elapsed < 1800.0


PIPELINE_ARCH = ["--set", "arch.scale_factor=0.25", "--set",
                 "arch.in_channels=1", "--set", "arch.num_identities=4"]


def _run_pipeline(root):
    """Reduced-budget end-to-end run; every artifact lands under root."""
    data = os.path.join(root, "data")
    manifest = os.path.join(data, "manifest.tsv")
    trunk = os.path.join(root, "trunk.ckpt")
    bundle = os.path.join(root, "bundle")
    steps = [
        ["synth", "--out", data, "--set", "num_identities=4",
         "--set", "samples_per_identity=10", "--set", "image_size=56",
         "--set", "seed=909"],
        ["train-base", "--data", manifest, "--out", trunk, *PIPELINE_ARCH,
         "--set", "train.batch_size=8", "--set", "train.max_minibatches=6",
         "--set", "train.seed=5"],
        ["finetune", "--trunk", trunk, "--branch", "conv22", "--task",
         "binary", "--classes", "2", "--data", manifest, "--out", bundle,
         "--set", "train.batch_size=8", "--set", "train.max_minibatches=4",
         "--set", "train.seed=3"],
        ["branch-grid", "--trunk", trunk, "--tasks",
         os.path.join(root, "tasks.txt"), "--data", manifest,
         "--layers", "conv22,fc", "--report", os.path.join(root, "grid.tsv"),
         "--set", "train.batch_size=8", "--set", "train.max_minibatches=3",
         "--set", "train.seed=2"],
        ["predict", "--bundle", bundle, "--data", manifest, "--out",
         os.path.join(root, "predictions.txt"), "--split", "val"],
        ["probe", "--trunk", trunk, "--data", manifest, "--layers",
         "input,fc", "--factors", "nuisance:nuisance:7", "--report",
         os.path.join(root, "probe.tsv")],
        ["eval-verify", "--pairs", os.path.join(root, "pairs.txt"),
         "--embeddings", os.path.join(root, "embeddings.tnsr"),
         "--report", os.path.join(root, "verify.txt")],
        ["operating-point", "--scores", os.path.join(root, "scores.tnsr"),
         "--labels", os.path.join(root, "labels.tnsr"), "--target-fpr",
         "0.1", "--report", os.path.join(root, "operating_point.txt")],
    ]
    for argv in steps:
        if argv[0] == "eval-verify":
            # embeddings: flattened images of the first 12 samples; pairs
            # labeled by identity equality, two alternating splits
            m = Manifest.load(manifest)
            ids = m.ids[:12]
            rows = np.stack([read_tensor(m.tensor_path(i)).ravel()
                             for i in ids])
            write_tensor(os.path.join(root, "embeddings.tnsr"), rows)
            idents = [m.label(i, "identity") for i in ids]
            lines = []
            for j in range(0, 12, 2):
                for l in range(j + 1, 12, 3):
                    same = int(idents[j] == idents[l])
                    lines.append(f"{j} {l} {same} {(j + l) % 2}")
            with open(os.path.join(root, "pairs.txt"), "w") as f:
                f.write("\n".join(lines) + "\n")
        if argv[0] == "operating-point":
            srng = np.random.default_rng(77)
            write_tensor(os.path.join(root, "scores.tnsr"),
                         srng.random((30, 3)))
            write_tensor(os.path.join(root, "labels.tnsr"),
                         (srng.random((30, 3)) < 0.4).astype(np.float64))
        if argv[0] == "branch-grid":
            with open(os.path.join(root, "tasks.txt"), "w") as f:
                f.write("binary binary 2 softmax\n")
        rc = cli_main(argv)
        assert rc == 0, f"pipeline step {argv[0]} exited {rc}"


def _tree_files(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_09_pipeline_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "run_a"), str(tmp_path / "run_b")
    for root in (a, b):
        os.makedirs(root)
        _run_pipeline(root)
    capsys.readouterr()  # pipeline chatter is not under test
    files_a, files_b = _tree_files(a), _tree_files(b)
    same_names = sorted(files_a) == sorted(files_b)
    diff = [n for n in files_a if files_a[n] != files_b.get(n)]
    ok = same_names and not diff
    verdict(9, "pipeline determinism", ok,
            f"{len(files_a)} files byte-compared across two runs, "
            f"differing: {diff or 'none'}")
    assert same_names
    assert not diff


def test_10_learning_rate_schedule():
    cfg = TrainConfig()
    values = (lr_at(0, cfg), lr_at(10_000, cfg), lr_at(25_000, cfg))
    ok = values == (0.1, 0.025, 0.00625)
    verdict(10, "learning-rate schedule", ok,
            f"t=0/10000/25000 -> {values}")
    assert values == (0.1, 0.025, 0.00625)


def test_desk_study_reproduces_committed_reports(study):
    result, _ = study
    reports = os.path.join(os.path.dirname(__file__), "..", "reports")

    def read(path):
        with open(path, "rb") as f:
            return f.read()

    assert read(result.report_paths["grid_table"]) == \
        read(os.path.join(reports, "branch_grid.txt"))
    assert read(result.report_paths["probe_table"]) == \
        read(os.path.join(reports, "invariance_probe.txt"))
    assert read(result.report_paths["study"]) == \
        read(os.path.join(reports, "desk_study.txt"))
