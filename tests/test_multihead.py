import re

import numpy as np
import pytest

from branchnet.accounting import count_flops, suffix_macs
from branchnet.engine import forward_pass
from branchnet.graph import ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel, combined_flops,
                                 format_prediction_lines, load_bundle,
                                 predict_all, run_head_standalone, save_bundle)
from branchnet.params import frozen_names, load_checkpoint, save_checkpoint
from branchnet.train import TrainConfig, init_params, make_branch

DESK_HEADS = (("nuisance", "conv19", 7, "softmax"),
              ("stage", "conv22", 14, "softmax"),
              ("tags", "fc", 9, "sigmoid-multilabel"),
              ("binary", "fc", 2, "softmax"))


@pytest.fixture(scope="module")
def model():
    graph = build_trunk(ArchConfig.desk(num_identities=12))
    store = init_params(graph, TrainConfig.desk(seed=31))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 1, 56, 56)).astype(np.float32)
    _, updates = forward_pass(graph, store, x, mode="train")
    store.running.update(updates)
    m = MultiHeadModel(graph, store)
    for i, (task, layer, k, loss) in enumerate(DESK_HEADS):
        br = make_branch(graph, store, layer, k, loss=loss, seed=100 + i)
        # give retrained batchnorms usable inference statistics
        _, upd = forward_pass(br.graph, br.store, x, mode="train",
                              train_from=br.branch_index)
        br.store.running.update(upd)
        m.add_head(HeadSpec(task, layer, k, loss), br.graph, br.store)
    return m


def inputs(seed, n):
    return np.random.default_rng(seed).standard_normal((n, 1, 56, 56)) \
        .astype(np.float32)


def test_zero_head_model_predicts_identity_only(model):
    bare = MultiHeadModel(model.trunk_graph, model.trunk_store)
    pred = predict_all(bare, inputs(0, 3))
    assert pred.tasks == {}
    assert pred.identity_probs.shape == (3, 12)
    np.testing.assert_allclose(pred.identity_probs.sum(axis=1), 1.0, atol=1e-6)
    total, per_head = combined_flops(bare)
    assert per_head == {} and total == count_flops(bare.trunk_graph).total_macs


def test_trunk_runs_once_per_call(model):
    stats = {}
    for i in range(5):
        predict_all(model, inputs(i, 2), stats=stats)
    assert stats["trunk_forwards"] == 5


def test_cached_heads_match_standalone_bitwise(model):
    x = inputs(17, 6)
    pred = predict_all(model, x)
    by_task = {h.spec.task: h for h in model.heads}
    for task, head in by_task.items():
        np.testing.assert_array_equal(pred.tasks[task].scores,
                                      run_head_standalone(head, x))
    assert set(pred.tasks) == {t for t, *_ in DESK_HEADS}


def test_task_outputs_are_scored_and_labeled(model):
    pred = predict_all(model, inputs(3, 4))
    out = pred.tasks["nuisance"]
    assert out.scores.shape == (4, 7)
    np.testing.assert_array_equal(out.labels, out.scores.argmax(axis=1))
    np.testing.assert_allclose(out.scores.sum(axis=1), 1.0, atol=1e-6)
    tags = pred.tasks["tags"].scores
    assert tags.shape == (4, 9)
    assert np.all((tags >= 0) & (tags <= 1))


def test_batch_composition_independence(model):
    xa = inputs(23, 3)
    solo = predict_all(model, xa[1:2])
    batch = predict_all(model, xa)
    for task in solo.tasks:
        a = solo.tasks[task].scores[0]
        b = batch.tasks[task].scores[1]
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        assert float(rel.max()) < 1e-5, task


def test_combined_cost_decomposition(model):
    total, per_head = combined_flops(model)
    g = model.trunk_graph
    want = {"nuisance": suffix_macs(g, "conv19", 7),
            "stage": suffix_macs(g, "conv22", 14),
            "tags": suffix_macs(g, "fc", 9),
            "binary": suffix_macs(g, "fc", 2)}
    assert per_head == want
    assert total == count_flops(g).total_macs + sum(want.values())
    emb = g.node("fc").attrs["in"]
    assert want["tags"] == emb * 9 and want["binary"] == emb * 2


def test_adding_heads_never_decreases_cost(model):
    partial = MultiHeadModel(model.trunk_graph, model.trunk_store)
    last = combined_flops(partial)[0]
    for head in model.heads:
        partial.heads.append(head)
        now = combined_flops(partial)[0]
        assert now > last
        last = now


def test_bundle_round_trip(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["binary.ckpt", "heads.txt", "nuisance.ckpt", "stage.ckpt",
                     "tags.ckpt", "trunk.ckpt"]
    lines = (out / "heads.txt").read_text().splitlines()
    assert lines[0] == "binary fc 2 softmax"
    assert lines[2] == "stage conv22 14 softmax"

    loaded = load_bundle(out)
    x = inputs(29, 4)
    a = predict_all(model, x)
    b = predict_all(loaded, x)
    np.testing.assert_array_equal(a.identity_logits, b.identity_logits)
    for task in a.tasks:
        np.testing.assert_array_equal(a.tasks[task].scores, b.tasks[task].scores)

    # saving the reloaded model reproduces the exact bytes
    out2 = tmp_path / "bundle2"
    save_bundle(out2, loaded)
    for name in names:
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_load_bundle_requires_heads_file(tmp_path, model):
    out = tmp_path / "partial"
    save_bundle(out, model)
    (out / "heads.txt").unlink()
    with pytest.raises(ValueError, match="heads.txt"):
        load_bundle(out)


@pytest.mark.parametrize("heads, message", [
    # a head's line must describe the head its checkpoint holds
    ("nuisance conv19 3 softmax",
     "'nuisance' is not the trunk's head for 3 classes and loss 'softmax'"),
    ("nuisance conv19 7 sigmoid-multilabel",
     "'nuisance' is not the trunk's head for 7 classes and loss "
     "'sigmoid-multilabel'"),
    ("nuisance conv19 7 softmax\nnuisance conv19 7 softmax",
     "'nuisance' is already in the model"),
    ("nuisance conv19 0 softmax",
     "heads.txt:1: a task needs at least 2 classes, got 0"),
    ("nuisance relu5 7 softmax", "lacks as a branch point"),
    ("nuisance conv19 7 softmax\nmissing fc 2 softmax", "lacks missing.ckpt"),
], ids=["class-count", "loss", "listed-twice", "no-classes",
        "not-a-branch-point", "missing-file"])
def test_load_bundle_rejects_a_heads_line_that_does_not_match_its_head(
        tmp_path, model, heads, message):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    (out / "heads.txt").write_text(heads + "\n")
    with pytest.raises(ValueError) as exc:
        load_bundle(out)
    assert message in str(exc.value)


def test_heads_file_comments_and_blank_lines_are_skipped(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    lines = (out / "heads.txt").read_text().splitlines()
    (out / "heads.txt").write_text("# task branch classes loss\n\n"
                                   + "\n".join(lines[:2]) + "  # two heads\n")
    loaded = load_bundle(out)
    assert [h.spec.task for h in loaded.heads] == ["binary", "nuisance"]


def test_prediction_line_format(model):
    x = inputs(31, 2)
    pred = predict_all(model, x)
    lines = format_prediction_lines(["a", "b"], pred, model.heads)
    assert len(lines) == 2
    pattern = (r"^a identity=\d+:0\.\d{6} binary=\d+:0\.\d{6}"
               r" nuisance=\d+:0\.\d{6} stage=\d+:0\.\d{6} tags=\d+:0\.\d{6}"
               r" tags_scores=\[0\.\d{6}(,0\.\d{6}){8}\]$")
    assert re.match(pattern, lines[0]), lines[0]


def test_add_head_validation(model):
    bare = MultiHeadModel(model.trunk_graph, model.trunk_store)
    head = model.heads[0]
    with pytest.raises(ValueError, match="which the trunk lacks"):
        bare.add_head(HeadSpec("t", "conv99", 7, "softmax"),
                      head.graph, head.store)
    other = build_trunk(ArchConfig.desk(num_identities=12, in_channels=3))
    with pytest.raises(ValueError, match="input shape"):
        bare.add_head(HeadSpec("t", "conv19", 7, "softmax"),
                      other, head.store)
    # a prefix that differs below the branch point is rejected
    divergent = build_trunk(ArchConfig(scale_factor=0.25, num_identities=12,
                                       in_channels=1, stem_channels=36))
    assert divergent.input_shape == model.trunk_graph.input_shape
    with pytest.raises(ValueError, match="prefix diverges"):
        bare.add_head(HeadSpec("t", "conv19", 7, "softmax"),
                      divergent, head.store)


def test_predict_all_rejects_wrong_input_shape(model):
    with pytest.raises(ValueError, match="does not match trunk input"):
        predict_all(model, np.zeros((2, 3, 56, 56), dtype=np.float32))


def test_bundle_files_carry_no_momentum(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    for path in out.glob("*.ckpt"):
        _, store = load_checkpoint(path)
        assert store.momentum == {} and store.arrays


def test_loaded_bundle_holds_each_byte_once(tmp_path, model):
    save_bundle(tmp_path / "bundle", model)
    loaded = load_bundle(tmp_path / "bundle")
    trunk = loaded.trunk_store
    assert trunk.momentum == {}
    want = sum(a.nbytes for a in trunk.arrays.values())
    running = dict(trunk.running)
    for head in loaded.heads:
        assert head.store.momentum == {}
        bidx = head.graph.index(head.spec.branch_layer)
        prefix = frozen_names(head.graph, bidx)
        assert prefix
        for name in prefix:
            assert head.store.arrays[name] is trunk.arrays[name], name
        for name, arr in head.store.arrays.items():
            if name not in prefix:
                want += arr.nbytes
        for bn, rs in head.store.running.items():
            if head.graph.index(bn) < bidx:
                assert rs is trunk.running[bn], bn
            else:
                running[(head.spec.task, bn)] = rs
    want += sum(rs.mean.nbytes + rs.var.nbytes for rs in running.values())

    unique = {}
    for store in [trunk] + [h.store for h in loaded.heads]:
        for arr in store.arrays.values():
            unique[id(arr)] = arr
        for rs in store.running.values():
            unique[id(rs.mean)], unique[id(rs.var)] = rs.mean, rs.var
    assert sum(a.nbytes for a in unique.values()) == want


def reseal_head(bundle, task, change):
    """Apply change(store) to a head checkpoint and write it back with a
    valid checksum."""
    path = bundle / f"{task}.ckpt"
    graph, store = load_checkpoint(path)
    change(store)
    save_checkpoint(path, graph, store)


def bump_first(arr):
    arr.reshape(-1)[0] = np.nextafter(arr.reshape(-1)[0], np.float32(np.inf))


PERTURBATIONS = {
    "a/conv1/w": lambda s: bump_first(s.arrays["conv1/w"]),
    "rm/bn1": lambda s: bump_first(s.running["bn1"].mean),
    "rv/bn2": lambda s: bump_first(s.running["bn2"].var),
    # numerically equal to the trunk's 0.0, but not the same bits
    "a/bn1/beta": lambda s: s.arrays["bn1/beta"].__setitem__(0, -0.0),
}


@pytest.mark.parametrize("record", sorted(PERTURBATIONS))
def test_head_prefix_that_differs_from_the_trunk_is_rejected(tmp_path, model,
                                                             record):
    assert model.trunk_store.arrays["bn1/beta"][0] == 0.0
    out = tmp_path / "bundle"
    save_bundle(out, model)
    reseal_head(out, "stage", PERTURBATIONS[record])
    with pytest.raises(ValueError, match=f"head 'stage' record '{record}' "
                                         "does not match the trunk"):
        load_bundle(out)


def test_head_suffix_may_differ_from_the_trunk(tmp_path, model):
    # conv22 is where the stage head branches: retrained, not verified
    out = tmp_path / "bundle"
    save_bundle(out, model)
    reseal_head(out, "stage", lambda s: bump_first(s.arrays["conv22/w"]))
    loaded = load_bundle(out)
    stage = next(h for h in loaded.heads if h.spec.task == "stage")
    assert stage.store.arrays["conv22/w"] is not \
        loaded.trunk_store.arrays["conv22/w"]


def test_add_head_shares_a_bitwise_equal_prefix(model):
    head = model.heads[0]  # nuisance, branching at conv19
    copied = head.store.copy()
    bare = MultiHeadModel(model.trunk_graph, model.trunk_store)
    bare.add_head(head.spec, head.graph, copied)
    for name in frozen_names(head.graph, head.graph.index("conv19")):
        assert copied.arrays[name] is model.trunk_store.arrays[name]
    assert copied.running["bn1"] is model.trunk_store.running["bn1"]
    assert copied.arrays["conv19/w"] is not head.store.arrays["conv19/w"]

    # a missing prefix record is a mismatch, and a failed add changes nothing
    partial = head.store.copy()
    del partial.running["bn2"]
    with pytest.raises(ValueError, match="record 'rc/bn2'"):
        bare.add_head(head.spec, head.graph, partial)
    assert partial.arrays["conv1/w"] is not model.trunk_store.arrays["conv1/w"]
    assert len(bare.heads) == 1


def test_bundle_written_with_momentum_loads_without_it(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    save_checkpoint(out / "trunk.ckpt", model.trunk_graph, model.trunk_store)
    for head in model.heads:
        save_checkpoint(out / f"{head.spec.task}.ckpt", head.graph, head.store)
    assert load_checkpoint(out / "trunk.ckpt")[1].momentum

    loaded = load_bundle(out)
    assert loaded.trunk_store.momentum == {}
    assert all(h.store.momentum == {} for h in loaded.heads)
    x = inputs(37, 3)
    a, b = predict_all(model, x), predict_all(loaded, x)
    np.testing.assert_array_equal(a.identity_logits, b.identity_logits)
    for task in a.tasks:
        np.testing.assert_array_equal(a.tasks[task].scores, b.tasks[task].scores)
