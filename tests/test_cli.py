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
from branchnet.dataio import (Manifest, load_batch, read_tensor, split_ids,
                              write_tensor)
from branchnet.experiments import GridTask, load_tasks
from branchnet.graph import ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel,
                                 format_prediction_lines, load_bundle,
                                 predict_all, run_head_standalone,
                                 save_bundle)
from branchnet.params import checkpoint_bytes, load_checkpoint, save_checkpoint
from branchnet.train import TrainConfig, init_params, make_branch
from conftest import (branch_digests, checksum64, head_on_relu320,
                      head_on_relu_over_fc,
                      named_cls, save_full_prefix_bundle, with_graph_text,
                      write_unchecked_tensor)

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
    committed = os.path.join(os.path.dirname(__file__), "..", "reports",
                             "arch_resolution.txt")
    with open(committed, "rb") as f:
        assert report.read_bytes() == f.read()


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
    digest = branch_digests(*load_checkpoint(
        os.path.join(bundle_dir, "trunk.ckpt")))["conv22"]
    with open(os.path.join(bundle_dir, "heads.txt")) as f:
        assert f.read().splitlines() == [f"binary conv22 2 softmax {digest}"]
    # the head file holds the head from its branch layer on
    _, head = load_checkpoint(os.path.join(bundle_dir, "binary.ckpt"),
                              start="conv22")
    assert "conv22/w" in head.arrays and "conv21/w" not in head.arrays


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
                              "--split", "val")
    assert rc == 0
    assert err == ""
    assert "combined cost" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    assert all("binary=" in line for line in lines)


def subset_manifest(corpus, path, count, split=None):
    """The corpus's first count rows, saved at path with absolute tensor
    paths; split, when given, replaces every row's split value."""
    manifest = Manifest.load(corpus)
    rows = [{**row, "path": manifest.tensor_path(row["id"]),
             **({} if split is None else {"split": str(split)})}
            for row in manifest.rows[:count]]
    Manifest(manifest.columns, rows).save(path)
    return str(path)


def test_predict_is_one_pass_over_its_split(capsys, tmp_path, corpus,
                                            bundle_dir, monkeypatch):
    # A 7-class head's fc takes other bits in a 2- or 3-row pass than
    # inside a 32-row chunk; 34 samples leave infer a trailing 2-row chunk.
    # The file rounds scores to 6 places, so the bits are read from the
    # predict_all calls themselves.
    calls = []

    def recording(model, x):
        calls.append((model, x, predict_all(model, x)))
        return calls[-1][2]

    monkeypatch.setattr("branchnet.cli.predict_all", recording)
    model = load_bundle(bundle_dir)
    branch = make_branch(model.trunk_graph, model.trunk_store, "conv19", 7,
                         warm=True, seed=2)
    model.add_head(HeadSpec("nuisance", "conv19", 7, "softmax"),
                   branch.graph, branch.store)
    bundle = tmp_path / "bundle"
    save_bundle(bundle, model)
    data = subset_manifest(corpus, tmp_path / "m.tsv", 34)
    out = tmp_path / "p.txt"
    rc, _, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                         "--data", data, "--out", str(out))
    assert rc == 0, err
    [(model, x, pred)] = calls
    manifest = Manifest.load(data)
    assert x.tobytes() == load_batch(manifest, manifest.ids)[0].tobytes()
    assert out.read_text().splitlines() == format_prediction_lines(
        manifest.ids, pred, model.heads)
    assert len(model.heads) == 2
    for head in model.heads:
        scores = pred.tasks[head.spec.task].scores
        assert scores.tobytes() == run_head_standalone(head, x).tobytes()


def test_predict_over_an_empty_split_writes_no_prediction(capsys, tmp_path,
                                                          corpus, bundle_dir):
    data = subset_manifest(corpus, tmp_path / "m.tsv", 5, split=0)
    out = tmp_path / "p.txt"
    rc, stdout, err = run_cli(capsys, "predict", "--bundle", bundle_dir,
                              "--data", data, "--out", str(out),
                              "--split", "val")
    assert rc == 0 and err == ""
    assert stdout.startswith(f"wrote 0 predictions to {out}")
    assert out.read_text() == ""


def test_a_classifier_named_cls_fine_tunes_warm_and_serves(capsys, tmp_path,
                                                           corpus, trunk_ckpt):
    trunk = str(tmp_path / "cls.ckpt")
    save_checkpoint(trunk, *named_cls(*load_checkpoint(trunk_ckpt)))
    bundle = str(tmp_path / "bundle")
    rc, _, err = run_cli(capsys, "finetune", "--trunk", trunk, "--warm",
                         "--branch", "conv22", "--task", "binary",
                         "--classes", "2", "--data", corpus, "--out", bundle,
                         "--set", "train.batch_size=8",
                         "--set", "train.max_minibatches=2")
    assert rc == 0, err
    out = tmp_path / "p.txt"
    rc, _, err = run_cli(capsys, "predict", "--bundle", bundle,
                         "--data", corpus, "--out", str(out))
    assert rc == 0, err
    assert len(out.read_text().splitlines()) == len(Manifest.load(corpus).ids)


def test_finetune_rejects_a_trunk_whose_head_reads_no_fc_node(capsys, tmp_path,
                                                             corpus, trunk_ckpt):
    graph, store = load_checkpoint(trunk_ckpt)
    trunk = str(tmp_path / "fc_relu.ckpt")
    save_checkpoint(trunk, head_on_relu_over_fc(graph), store)
    bundle = tmp_path / "bundle"
    rc, out, err = run_cli(capsys, "finetune", "--trunk", trunk,
                           "--branch", "conv22", "--task", "binary",
                           "--classes", "2", "--data", corpus,
                           "--out", str(bundle))
    assert rc == 2 and out == ""
    assert err == "error: the trunk's head reads 'fc_relu', not an fc node\n"
    assert not bundle.exists()


def test_predict_rejects_a_bundle_whose_trunk_head_reads_relu320(
        capsys, tmp_path, corpus, trunk_ckpt):
    # the trunk's records without fc's, under the text of a graph whose
    # head reads the (80, 1, 1) relu320: a bundle with no heads
    graph, store = load_checkpoint(trunk_ckpt)
    for table in (store.arrays, store.momentum, store.trainable):
        del table["fc/w"], table["fc/b"]
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "heads.txt").write_text("")
    (bundle / "trunk.ckpt").write_bytes(with_graph_text(
        checkpoint_bytes(graph, store), head_on_relu320(graph)))
    out = tmp_path / "p.txt"
    rc, stdout, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                              "--data", corpus, "--out", str(out))
    assert rc == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "node 'softmax' needs (m,) logits with m >= 2, got shape (80, 1, 1)" in err
    assert not out.exists()


def test_predict_takes_no_batch_size(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--bundle", str(tmp_path), "--data",
              str(tmp_path / "m.tsv"), "--out", str(tmp_path / "p.txt"),
              "--batch-size", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --batch-size 64" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["trunk.ckpt", "binary.ckpt"])
def test_predict_names_a_corrupt_checkpoint(capsys, tmp_path, corpus,
                                            bundle_dir, name):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    path = bundle / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    out = tmp_path / "p.txt"
    rc, stdout, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                              "--data", corpus, "--out", str(out))
    assert rc == 2 and stdout == ""
    assert err == (f"error: {path}: checkpoint checksum mismatch; file is "
                   f"corrupt\n")
    assert not out.exists()


@pytest.mark.parametrize("setting, field", [
    ("arch.scale_factor=inf", "scale_factor"),
    ("arch.scale_factor=nan", "scale_factor"),
    ("arch.scale_factor=1e308", "scale_factor"),
    ("arch.input_size=1" + "0" * 400, "input_size"),
    ("arch.stem_channels=1" + "0" * 400, "stem_channels"),
    ("arch.embedding_dim=-3", "embedding_dim"),
    ("arch.stem_channels=-4", "stem_channels"),
    ("arch.stage_channels=64,0;128,512;256,1024;320,2048", "stage_channels"),
    ("arch.in_channels=0", "in_channels"),
], ids=["scale-inf", "scale-nan", "scale-1e308", "huge-input", "huge-stem",
        "negative-embedding", "negative-stem", "zero-stage-channel",
        "zero-in-channels"])
def test_flops_rejects_an_architecture_it_cannot_build(capsys, setting, field):
    rc, out, err = run_cli(capsys, "flops", "--set", setting)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


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


@pytest.mark.parametrize("lines, message", [
    ("t binary 2 softmax\nt nuisance 7 softmax\n",
     "task name 't' is given twice"),
    ("# no task line\n", "no tasks given"),
])
def test_branch_grid_rejects_a_repeated_task_or_none(capsys, tmp_path, corpus,
                                                     trunk_ckpt, lines,
                                                     message):
    tasks = tmp_path / "tasks.txt"
    tasks.write_text(lines)
    rc, out, err = run_cli(capsys, "branch-grid", "--trunk", trunk_ckpt,
                           "--tasks", str(tasks), "--data", corpus,
                           "--report", str(tmp_path / "grid.txt"))
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "grid.txt").exists()


@pytest.mark.parametrize("factors, message", [
    ("a:nuisance:7,a:binary:2", "task name 'a' is given twice"),
    ("", "no tasks given"),
])
def test_probe_rejects_a_repeated_factor_or_none(capsys, tmp_path, corpus,
                                                 trunk_ckpt, factors,
                                                 message):
    rc, out, err = run_cli(capsys, "probe", "--trunk", trunk_ckpt,
                           "--data", corpus, "--layers", "input",
                           "--factors", factors,
                           "--report", str(tmp_path / "probe.txt"))
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "probe.txt").exists()


@pytest.mark.parametrize("command, layers", [("branch-grid", "fc,fc"),
                                             ("probe", "conv17,conv17")])
def test_a_layer_given_twice_is_rejected(capsys, tmp_path, corpus, trunk_ckpt,
                                         command, layers):
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("binary binary 2 softmax\n")
    what = (["--tasks", str(tasks)] if command == "branch-grid"
            else ["--factors", "nuisance:nuisance:7"])
    report = tmp_path / "report.txt"
    rc, out, err = run_cli(capsys, command, "--trunk", trunk_ckpt, *what,
                           "--data", corpus, "--layers", layers,
                           "--report", str(report))
    layer = layers.partition(",")[0]
    assert (rc, out, err) == (2, "", f"error: layer {layer!r} is given twice\n")
    assert not report.exists()


def test_train_base_rejects_a_rate_that_is_not_finite(capsys, tmp_path, corpus):
    out = tmp_path / "trunk.ckpt"
    rc, stdout, err = run_cli(capsys, "train-base", "--data", corpus,
                              "--out", str(out), *ARCH,
                              "--set", "train.lr0=nan")
    assert (rc, stdout) == (2, "")
    assert err == "error: lr0 must lie in (0, inf), got nan\n"
    assert not out.exists()


def test_finetune_rejects_a_label_beyond_int64(capsys, tmp_path, corpus,
                                               trunk_ckpt):
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(corpus), data)
    manifest = Manifest.load(data / "manifest.tsv")
    manifest.rows[0]["binary"] = "99999999999999999999999"
    manifest.save(data / "manifest.tsv")
    rc, out, err = run_cli(capsys, "finetune", "--trunk", trunk_ckpt,
                           "--branch", "fc", "--task", "binary",
                           "--classes", "2",
                           "--data", str(data / "manifest.tsv"),
                           "--out", str(tmp_path / "b"))
    assert (rc, out) == (2, "")
    assert err == (f"error: manifest id {manifest.ids[0]!r}: binary value "
                   f"'99999999999999999999999' is not an integer within "
                   f"int64\n")
    assert not (tmp_path / "b").exists()


def test_a_multilabel_task_decodes_its_column_by_its_loss(capsys, tmp_path,
                                                          corpus, trunk_ckpt):
    # the bitmask column renamed: decoding follows the task, not the name
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(corpus), data)
    manifest = Manifest.load(data / "manifest.tsv")
    manifest.columns = tuple("tags" if c == "multilabel" else c
                             for c in manifest.columns)
    for row in manifest.rows:
        row["tags"] = row.pop("multilabel")
    manifest.save(data / "renamed.tsv")
    labels = [load_tasks(Manifest.load(data / name),
                         [GridTask("tags", column, 9, "sigmoid-multilabel")],
                         "all")["tags"].labels
              for name, column in (("renamed.tsv", "tags"),
                                   ("manifest.tsv", "multilabel"))]
    assert labels[0].shape == (40, 9)
    assert labels[0].tobytes() == labels[1].tobytes()
    reports = []
    for name, column in (("renamed.tsv", "tags"), ("manifest.tsv", "multilabel")):
        tasks = tmp_path / "tasks.txt"
        tasks.write_text(f"tags {column} 9 sigmoid-multilabel\n")
        report = tmp_path / f"{column}.tsv"
        rc, _, err = run_cli(capsys, "branch-grid", "--trunk", trunk_ckpt,
                             "--tasks", str(tasks), "--data", str(data / name),
                             "--layers", "conv22,fc", "--report", str(report),
                             "--set", "train.batch_size=8",
                             "--set", "train.max_minibatches=2")
        assert (rc, err) == (0, "")
        reports.append(report.read_text())
    assert reports[0] == reports[1]


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


def test_operating_point_rejects_a_nan_score(capsys, tmp_path):
    scores_p = tmp_path / "scores.tnsr"
    labels_p = tmp_path / "labels.tnsr"
    report = tmp_path / "op.txt"
    write_unchecked_tensor(scores_p, np.array([[0.9, np.nan], [0.2, 0.1]]))
    write_tensor(str(labels_p), np.array([[1, 1], [0, 0]]))
    rc, out, err = run_cli(capsys, "operating-point", "--scores", str(scores_p),
                           "--labels", str(labels_p), "--report", str(report))
    assert (rc, out) == (2, "")
    assert err == f"error: {scores_p}: holds a non-finite value\n"
    assert not report.exists()


def test_eval_verify_rejects_a_nan_embedding(capsys, tmp_path):
    table = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0], [0.01, np.nan]])
    emb = tmp_path / "emb.tnsr"
    write_unchecked_tensor(emb, table)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1 1 0\n2 3 1 0\n0 2 0 1\n1 3 0 1\n")
    report = tmp_path / "verify.txt"
    rc, out, err = run_cli(capsys, "eval-verify", "--pairs", str(pairs),
                           "--embeddings", str(emb), "--report", str(report))
    assert (rc, out) == (2, "")
    assert err == f"error: {emb}: holds a non-finite value\n"
    assert not report.exists()


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


def test_synth_of_a_mask_wider_than_int64_exits_two(capsys, tmp_path):
    out = tmp_path / "d"
    rc, _, err = run_cli(capsys, "synth", "--out", str(out),
                         "--set", "multilabel_classes=64")
    assert rc == 2
    assert err.startswith("error: multilabel_classes must lie in [1, 63]")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_train_base_on_images_of_another_size_writes_nothing(capsys, tmp_path):
    data = tmp_path / "small"
    assert main(["synth", "--out", str(data), "--set", "num_identities=4",
                 "--set", "samples_per_identity=2", "--set", "image_size=40",
                 "--set", "seed=9"]) == 0
    out = tmp_path / "t.ckpt"
    rc, _, err = run_cli(capsys, "train-base", "--data",
                         str(data / "manifest.tsv"), "--out", str(out), *ARCH,
                         "--set", "train.batch_size=2",
                         "--set", "train.max_minibatches=1")
    assert rc == 2
    assert err.startswith("error: input of shape (2, 1, 40, 40) does not "
                          "match the graph's per-sample input (1, 56, 56)")
    assert len(err.splitlines()) == 1
    assert not out.exists() and not os.path.exists(str(out) + ".log.tsv")


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
    # a bundle in the full-prefix form: its head file holds conv1/w and bn1
    bundle = tmp_path / "bundle"
    save_full_prefix_bundle(bundle, load_bundle(bundle_dir))
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
    graph, store = load_checkpoint(path, start="conv22")
    store.arrays["fc/w"][0, 0] = np.nan
    save_checkpoint(path, graph, store, start="conv22")
    rc, out, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                           "--data", corpus, "--out", str(tmp_path / "p.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'a/fc/w' holds a non-finite value" in err


def test_predict_rejects_a_bundle_without_running_statistics(capsys, tmp_path,
                                                            corpus, bundle_dir):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    for name, start in (("trunk.ckpt", None), ("binary.ckpt", "conv22")):
        path = str(bundle / name)
        graph, store = load_checkpoint(path, start)
        store.running.clear()
        save_checkpoint(path, graph, store, start)
    rc, out, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                           "--data", corpus, "--out", str(tmp_path / "p.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "batchnorm 'bn1' has no running statistics" in err


def test_predict_rejects_a_bundle_never_counted(capsys, tmp_path, corpus,
                                               trunk_ckpt):
    # an init_params trunk holds running statistics counted 0 times
    graph, _ = load_checkpoint(trunk_ckpt)
    model = MultiHeadModel(graph, init_params(graph, TrainConfig(seed=5)))
    br = make_branch(graph, model.trunk_store, "conv21", 2, seed=1)
    model.add_head(HeadSpec("binary", "conv21", 2, "softmax"), br.graph, br.store)
    bundle = tmp_path / "bundle"
    save_bundle(bundle, model)
    out = tmp_path / "p.txt"
    rc, stdout, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                              "--data", corpus, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "trunk.ckpt" in err and "batchnorm 'bn1'" in err
    assert not out.exists()


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
    digest = (bundle / "heads.txt").read_text().split()[4]
    (bundle / "heads.txt").write_text("".join(
        f"{line} {digest}\n" for line in heads.splitlines()))
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


@pytest.mark.parametrize("old, new, message", [
    ("relu1 relu inputs=", "relu1 relu foo=bar inputs=",
     "relu node 'relu1' carries undeclared attribute 'foo'"),
    ("graph ", "graph foo=bar ",
     "graph header key 'foo' is not input_shape or branch_points"),
], ids=["node", "header"])
def test_predict_rejects_a_trunk_whose_graph_text_carries_an_undeclared_key(
        capsys, tmp_path, corpus, bundle_dir, old, new, message):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    path = bundle / "trunk.ckpt"
    data = path.read_bytes()
    (glen,) = struct.unpack_from("<Q", data, 8)
    text = data[16:16 + glen].decode()
    assert text.count(old) == 1
    text = text.replace(old, new).encode()
    body = data[:8] + struct.pack("<Q", len(text)) + text + data[16 + glen:-8]
    path.write_bytes(body + checksum64(body))
    rc, out, err = run_cli(capsys, "predict", "--bundle", str(bundle),
                           "--data", corpus, "--out", str(tmp_path / "p.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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


def test_a_missing_file_is_one_error_line_naming_it(capsys, tmp_path):
    missing = str(tmp_path / "absent")
    for argv in (["flops", "--config", missing + ".arch"],
                 ["branch-grid", "--trunk", missing + ".ckpt", "--tasks",
                  missing + ".txt", "--data", missing + ".tsv",
                  "--report", str(tmp_path / "grid.txt")]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[2] in err


@pytest.mark.parametrize("task", ["#x", "x#y", "a b"])
def test_finetune_rejects_a_task_that_heads_txt_cannot_hold(
        capsys, tmp_path, corpus, trunk_ckpt, task):
    out = tmp_path / "bundle"
    rc, stdout, err = run_cli(capsys, "finetune", "--trunk", trunk_ckpt,
                              "--branch", "conv22", "--task", task,
                              "--field", "binary", "--classes", "2",
                              "--data", corpus, "--out", str(out),
                              "--set", "train.batch_size=8",
                              "--set", "train.max_minibatches=1")
    assert rc == 2 and stdout == ""
    assert err.startswith(f"error: task {task!r} holds whitespace or '#'")
    assert sorted(os.listdir(tmp_path)) == []


def test_set_is_given_only_to_the_commands_that_read_it(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--bundle", str(tmp_path), "--data",
              str(tmp_path / "m.tsv"), "--out", str(tmp_path / "p.txt"),
              "--set", "train.seed=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --set train.seed=1" in capsys.readouterr().err
    rc, out, _ = run_cli(capsys, "flops", "--set", "scale_factor=0.25")
    assert rc == 0 and "total" in out.lower()


def test_arch_resolve_rejects_a_soft_target_below_two_classes(capsys):
    rc, out, err = run_cli(capsys, "arch-resolve", "--set",
                           "soft_targets=conv19:1:100")
    assert (rc, out) == (2, "")
    assert err == ("error: soft_targets: num_classes must be at least 2 for "
                   "a branch head, got 1\n")
