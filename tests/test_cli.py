"""End-to-end checks of the command-line surface.

Every test drives main(argv) in-process and inspects exit codes, the
output streams, and the files a run leaves behind. Budgets are tiny on
purpose: these tests check wiring, not model quality.
"""

import os
import shutil
import struct

import numpy as np
import pytest

from branchnet.cli import main
from branchnet.common import checksum64
from branchnet.dataio import Manifest, read_tensor, split_ids, write_tensor
from branchnet.graph import ArchConfig, build_trunk
from branchnet.params import load_checkpoint, save_checkpoint
from branchnet.train import TrainConfig, init_params

# quarter-scale single-channel trunk over 4 identities, everywhere below
ARCH = ["--set", "arch.scale_factor=0.25", "--set", "arch.in_channels=1",
        "--set", "arch.num_identities=4"]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    rc = main(["synth", "--out", str(root),
               "--set", "num_identities=4",
               "--set", "samples_per_identity=10",
               "--set", "image_size=56",
               "--set", "seed=9"])
    assert rc == 0
    return os.path.join(str(root), "manifest.tsv")


@pytest.fixture(scope="session")
def trunk_ckpt(tmp_path_factory, corpus):
    out = str(tmp_path_factory.mktemp("cli_trunk") / "trunk.ckpt")
    rc = main(["train-base", "--data", corpus, "--out", out, *ARCH,
               "--set", "train.batch_size=8",
               "--set", "train.max_minibatches=6",
               "--set", "train.seed=5"])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def bundle_dir(tmp_path_factory, corpus, trunk_ckpt):
    out = str(tmp_path_factory.mktemp("cli_bundle") / "bundle")
    rc = main(["finetune", "--trunk", trunk_ckpt, "--branch", "conv22",
               "--task", "binary", "--classes", "2", "--data", corpus,
               "--out", out,
               "--set", "train.batch_size=8",
               "--set", "train.max_minibatches=4",
               "--set", "train.seed=3"])
    assert rc == 0
    return out


def test_synth_writes_manifest_and_tensors(corpus):
    manifest = Manifest.load(corpus)
    assert len(manifest.ids) == 40
    assert len(split_ids(manifest, "train")) == 32
    sample = read_tensor(manifest.tensor_path(manifest.ids[0]))
    assert sample.shape == (1, 56, 56)


def test_flops_prints_canonical_totals(capsys):
    rc, out, err = run_cli(capsys, "flops")
    assert rc == 0
    assert err == ""
    assert "10,460,848" in out
    assert "810,595,328" in out


def test_flops_respects_config_overrides(capsys):
    rc, out, _ = run_cli(capsys, "flops", *ARCH)
    assert rc == 0
    assert "10,460,848" not in out


def test_arch_resolve_default_succeeds(capsys, tmp_path):
    report = tmp_path / "resolution.txt"
    rc, out, err = run_cli(capsys, "arch-resolve", "--report", str(report))
    assert rc == 0
    assert err == ""
    text = report.read_text()
    assert text == out
    assert "1,1,5,4" in text
    assert "810,595,328" in text


def test_arch_resolve_impossible_window_exits_one(capsys, tmp_path):
    report = tmp_path / "resolution.txt"
    rc, out, err = run_cli(capsys, "arch-resolve", "--report", str(report),
                           "--set", "params_window=1,2")
    assert rc == 1
    assert "error: no composition satisfies the hard constraints" in err
    assert "nearest misses" in report.read_text()


def test_train_base_zero_steps_checkpoint_matches_init(capsys, tmp_path,
                                                       corpus):
    out = str(tmp_path / "zero.ckpt")
    rc, _, err = run_cli(capsys, "train-base", "--data", corpus, "--out", out,
                         *ARCH,
                         "--set", "train.max_minibatches=0",
                         "--set", "train.seed=5")
    # the checkpoint is written before inference-mode evaluation, which
    # cannot run without batchnorm statistics
    assert rc == 2
    assert err.startswith("error:")
    graph, store = load_checkpoint(out)
    arch = ArchConfig(scale_factor=0.25, in_channels=1, num_identities=4)
    expected = init_params(build_trunk(arch), TrainConfig(seed=5))
    assert sorted(store.arrays) == sorted(expected.arrays)
    for name, arr in expected.arrays.items():
        assert np.array_equal(store.arrays[name], arr)
    assert all(rs.count == 0 for rs in store.running.values())


def test_train_base_writes_checkpoint_and_log(capsys, trunk_ckpt):
    graph, store = load_checkpoint(trunk_ckpt)
    assert graph.input_shape == (1, 56, 56)
    assert store.running  # batchnorm statistics seeded by training
    log_path = trunk_ckpt + ".log.tsv"
    with open(log_path) as f:
        lines = [l for l in f if l.strip() and not l.startswith("#")]
    assert len(lines) == 1 + 6  # header plus one row per minibatch


def test_finetune_writes_bundle(bundle_dir):
    names = sorted(os.listdir(bundle_dir))
    assert names == ["binary.ckpt", "binary.log.tsv", "heads.txt",
                     "trunk.ckpt"]
    with open(os.path.join(bundle_dir, "heads.txt")) as f:
        assert f.read().splitlines() == ["binary conv22 2 softmax"]


def test_finetune_rejects_unknown_branch(capsys, tmp_path, corpus,
                                         trunk_ckpt):
    rc, _, err = run_cli(capsys, "finetune", "--trunk", trunk_ckpt,
                         "--branch", "conv3", "--task", "binary",
                         "--classes", "2", "--data", corpus,
                         "--out", str(tmp_path / "b"))
    assert rc == 2
    assert err.startswith("error:")
    assert "conv22" in err  # lists the valid branch layers


def test_predict_over_bundle(capsys, tmp_path, corpus, bundle_dir):
    out = tmp_path / "predictions.txt"
    rc, stdout, err = run_cli(capsys, "predict", "--bundle", bundle_dir,
                              "--data", corpus, "--out", str(out),
                              "--split", "val", "--batch-size", "5")
    assert rc == 0
    assert err == ""
    assert "combined cost" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    assert all("binary=" in line for line in lines)


def test_branch_grid_writes_matrix(capsys, tmp_path, corpus, trunk_ckpt):
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("# task table\nbinary binary 2 softmax\n")
    report = tmp_path / "grid.txt"
    rc, out, err = run_cli(capsys, "branch-grid", "--trunk", trunk_ckpt,
                           "--tasks", str(tasks), "--data", corpus,
                           "--layers", "conv22,fc",
                           "--report", str(report),
                           "--set", "train.batch_size=8",
                           "--set", "train.max_minibatches=3",
                           "--set", "train.seed=2")
    assert rc == 0
    assert err == ""
    matrix = report.read_text().splitlines()
    assert matrix[1] == "layer\tbinary"
    assert [l.split("\t")[0] for l in matrix[2:]] == ["conv22", "fc"]
    assert "binary" in out


def test_branch_grid_rejects_malformed_task_line(capsys, tmp_path, corpus,
                                                 trunk_ckpt):
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("binary binary 2\n")
    rc, _, err = run_cli(capsys, "branch-grid", "--trunk", trunk_ckpt,
                         "--tasks", str(tasks), "--data", corpus,
                         "--report", str(tmp_path / "grid.txt"))
    assert rc == 2
    assert err == (f"error: {tasks}:1: expected 4 values separated by "
                   f"whitespace, got 'binary binary 2'\n")


def test_probe_writes_matrix(capsys, tmp_path, corpus, trunk_ckpt):
    report = tmp_path / "probe.txt"
    rc, out, err = run_cli(capsys, "probe", "--trunk", trunk_ckpt,
                           "--data", corpus, "--layers", "input,fc",
                           "--factors", "nuisance:nuisance:7",
                           "--report", str(report))
    assert rc == 0
    assert err == ""
    matrix = report.read_text().splitlines()
    assert matrix[1] == "layer\tnuisance"
    assert [l.split("\t")[0] for l in matrix[2:]] == ["input", "fc"]
    assert "linear-probe accuracy" in out


def test_probe_rejects_malformed_factor(capsys, tmp_path, corpus,
                                        trunk_ckpt):
    rc, _, err = run_cli(capsys, "probe", "--trunk", trunk_ckpt,
                         "--data", corpus, "--layers", "input",
                         "--factors", "nuisance=7",
                         "--report", str(tmp_path / "probe.txt"))
    assert rc == 2
    assert err == ("error: --factors: expected 3 values joined by ':', "
                   "got 'nuisance=7'\n")


def test_eval_verify_report(capsys, tmp_path):
    # two tight clusters: rows 0/1 match, rows 2/3 match, cross pairs differ
    table = np.array([[1.0, 0.0], [0.99, 0.01],
                      [0.0, 1.0], [0.01, 0.99]], dtype=np.float32)
    emb = tmp_path / "emb.tnsr"
    write_tensor(str(emb), table)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("# id_a id_b same split\n"
                     "0 1 1 0\n2 3 1 0\n0 2 0 0\n1 3 0 0\n"
                     "0 1 1 1\n2 3 1 1\n0 3 0 1\n1 2 0 1\n")
    report = tmp_path / "verify.txt"
    rc, out, err = run_cli(capsys, "eval-verify", "--pairs", str(pairs),
                           "--embeddings", str(emb), "--report", str(report))
    assert rc == 0
    assert err == ""
    assert report.read_text() == out
    assert "1.0" in out  # perfectly separable pairs


def test_eval_verify_rejects_bad_pair_ids(capsys, tmp_path):
    emb = tmp_path / "emb.tnsr"
    write_tensor(str(emb), np.eye(3, dtype=np.float32))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 9 1 0\n")
    rc, _, err = run_cli(capsys, "eval-verify", "--pairs", str(pairs),
                         "--embeddings", str(emb),
                         "--report", str(tmp_path / "r.txt"))
    assert rc == 2
    assert "outside embedding table" in err


def test_eval_verify_rejects_rank_one_embeddings(capsys, tmp_path):
    emb = tmp_path / "emb.tnsr"
    write_tensor(str(emb), np.arange(4, dtype=np.float32))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1 1 0\n")
    rc, _, err = run_cli(capsys, "eval-verify", "--pairs", str(pairs),
                         "--embeddings", str(emb),
                         "--report", str(tmp_path / "r.txt"))
    assert rc == 2
    assert "rank-2" in err


def test_operating_point_report(capsys, tmp_path):
    rng = np.random.default_rng(0)
    scores = rng.random((40, 3)).astype(np.float64)
    labels = (rng.random((40, 3)) < 0.3).astype(np.float64)
    scores_p = tmp_path / "scores.tnsr"
    labels_p = tmp_path / "labels.tnsr"
    write_tensor(str(scores_p), scores)
    write_tensor(str(labels_p), labels)
    report = tmp_path / "op.txt"
    rc, out, err = run_cli(capsys, "operating-point",
                           "--scores", str(scores_p),
                           "--labels", str(labels_p),
                           "--target-fpr", "0.05",
                           "--report", str(report))
    assert rc == 0
    assert err == ""
    assert report.read_text() == out
    assert "0.05" in out


def test_operating_point_rejects_shape_mismatch(capsys, tmp_path):
    scores_p = tmp_path / "scores.tnsr"
    labels_p = tmp_path / "labels.tnsr"
    write_tensor(str(scores_p), np.zeros((4, 2), dtype=np.float64))
    write_tensor(str(labels_p), np.zeros((5, 2), dtype=np.float64))
    rc, _, err = run_cli(capsys, "operating-point", "--scores", str(scores_p),
                         "--labels", str(labels_p),
                         "--report", str(tmp_path / "r.txt"))
    assert rc == 2
    assert err.startswith("error:")


def test_missing_data_file_exits_two(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "train-base", "--data",
                         str(tmp_path / "absent.tsv"),
                         "--out", str(tmp_path / "t.ckpt"))
    assert rc == 2
    assert err.startswith("error:")


def test_bad_override_syntax_exits_two(capsys):
    rc, _, err = run_cli(capsys, "flops", "--set", "no_equals_sign")
    assert rc == 2
    assert "error: override must look like key=value" in err


def test_unknown_synth_key_exits_two(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                         "--set", "glyphs=9")
    assert rc == 2
    assert "unknown synthetic-spec key" in err


def test_unknown_subcommand_raises_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code != 0
    capsys.readouterr()


def test_unknown_flag_raises_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--bogus"])
    assert exc.value.code != 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["soft_targets=fc:2", "params_window=1"])
def test_arch_resolve_wrong_arity_exits_two(capsys, value):
    rc, out, err = run_cli(capsys, "arch-resolve", "--set", value)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert value.split("=")[0] in err


def test_finetune_override_keeps_desk_schedule(capsys, tmp_path, corpus,
                                               trunk_ckpt):
    out = str(tmp_path / "bundle")
    rc, _, err = run_cli(capsys, "finetune", "--trunk", trunk_ckpt,
                         "--branch", "fc", "--task", "binary",
                         "--classes", "2", "--data", corpus, "--out", out,
                         "--set", "train.max_minibatches=2",
                         "--set", "train.seed=4")
    assert rc == 0, err
    with open(os.path.join(out, "binary.log.tsv")) as f:
        header = [line for line in f.read().splitlines()
                  if line.startswith("# ")]
    assert "# lr_decay_every=500" in header
    assert "# batch_size=32" in header
    assert "# seed=4" in header


@pytest.mark.parametrize("record", ["conv1/w", "bn1"])
def test_predict_rejects_a_head_whose_prefix_differs(capsys, tmp_path, corpus,
                                                     bundle_dir, record):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    path = str(bundle / "binary.ckpt")
    graph, store = load_checkpoint(path)
    if record == "bn1":
        store.running["bn1"].mean[0] += 1.0
    else:
        store.arrays["conv1/w"][0, 0, 0, 0] += 1.0
    save_checkpoint(path, graph, store)
    rc, out, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                           "--data", corpus, "--out", str(tmp_path / "p.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: head 'binary' record ") and err.count("\n") == 1
    assert record in err


def test_predict_rejects_a_bundle_with_a_non_finite_weight(capsys, tmp_path,
                                                           corpus, bundle_dir):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    path = str(bundle / "binary.ckpt")
    graph, store = load_checkpoint(path)
    store.arrays["fc/w"][0, 0] = np.nan
    save_checkpoint(path, graph, store)
    rc, out, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                           "--data", corpus, "--out", str(tmp_path / "p.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'a/fc/w' holds a non-finite value" in err


@pytest.mark.parametrize("heads", [
    "binary conv22 3 softmax",
    "binary conv22 2 sigmoid-multilabel",
    "binary conv22 2 softmax\nbinary conv22 2 softmax",
    "binary conv22 0 softmax",
], ids=["class-count", "loss", "listed-twice", "no-classes"])
def test_predict_rejects_a_heads_line_that_does_not_match_its_head(
        capsys, tmp_path, corpus, bundle_dir, heads):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    (bundle / "heads.txt").write_text(heads + "\n")
    out = tmp_path / "p.txt"
    rc, stdout, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                              "--data", corpus, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("task", ["trunk", "../escaped", "sub/binary"])
def test_finetune_rejects_a_task_that_is_not_a_plain_file_stem(
        capsys, tmp_path, corpus, trunk_ckpt, task):
    out = tmp_path / "bundle"
    rc, stdout, err = run_cli(capsys, "finetune", "--trunk", trunk_ckpt,
                              "--branch", "conv22", "--task", task,
                              "--field", "binary", "--classes", "2",
                              "--data", corpus, "--out", str(out),
                              "--set", "train.batch_size=8",
                              "--set", "train.max_minibatches=1")
    assert rc == 2
    assert stdout == ""
    assert err == (f"error: task {task!r} is not a plain file stem other "
                   f"than the trunk's\n")
    assert sorted(os.listdir(tmp_path)) == []


def test_eval_verify_rejects_a_same_flag_other_than_zero_or_one(capsys,
                                                                tmp_path):
    emb = tmp_path / "emb.tnsr"
    write_tensor(str(emb), np.eye(3, dtype=np.float32))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1 1 0\n0 2 2 0\n")
    report = tmp_path / "r.txt"
    rc, _, err = run_cli(capsys, "eval-verify", "--pairs", str(pairs),
                         "--embeddings", str(emb), "--report", str(report))
    assert rc == 2
    assert err == f"error: {pairs}:2: same must be 0 or 1, got 2\n"
    assert not report.exists()


def test_bundle_trunk_serves_as_a_trunk_checkpoint(capsys, tmp_path, corpus,
                                                   bundle_dir):
    trunk = os.path.join(bundle_dir, "trunk.ckpt")
    assert load_checkpoint(trunk)[1].momentum == {}
    rc, _, err = run_cli(capsys, "finetune", "--trunk", trunk,
                         "--branch", "conv22", "--task", "binary",
                         "--classes", "2", "--data", corpus,
                         "--out", str(tmp_path / "bundle"),
                         "--set", "train.batch_size=8",
                         "--set", "train.max_minibatches=2")
    assert rc == 0, err
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("binary binary 2 softmax\n")
    rc, _, err = run_cli(capsys, "branch-grid", "--trunk", trunk,
                         "--tasks", str(tasks), "--data", corpus,
                         "--layers", "conv22,fc",
                         "--report", str(tmp_path / "grid.txt"),
                         "--set", "train.batch_size=8",
                         "--set", "train.max_minibatches=2")
    assert rc == 0, err


def test_predict_rejects_a_bundle_whose_record_runs_past_the_checksum(
        capsys, tmp_path, corpus, bundle_dir):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    path = bundle / "binary.ckpt"
    data = path.read_bytes()
    name = b"a/fc/b"
    at = data.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    body = data[:at] + struct.pack("<Q", 2**63 + 5) + data[at + 8:-8]
    path.write_bytes(body + checksum64(body))
    rc, out, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                           "--data", corpus, "--out", str(tmp_path / "p.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'a/fc/b' runs past the checksum" in err
