import re

import numpy as np
import pytest

from branchnet.accounting import count_flops, suffix_macs
from branchnet.engine import forward_pass
from branchnet.graph import ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel, combined_flops,
                                 format_prediction_lines, load_bundle,
                                 predict_all, run_head_standalone,
                                 save_bundle)
from branchnet.params import (ParamStore, frozen_names, load_checkpoint,
                              param_owner, prefix_digests, prefix_records,
                              save_checkpoint, served_records)
from branchnet.train import TrainConfig, init_params, make_branch
from conftest import branch_digests, named_cls, save_full_prefix_bundle
from oracles import SERVED_KINDS, prefix_digest

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
    for n in (6, 33, 65):  # one chunk, and one sample past one or two
        x = inputs(17, n)
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


def served_prefix_digest(graph, store, layer):
    """The oracle's sha256 hex of the store's served records owned by the
    nodes before layer."""
    return prefix_digest(graph, store, graph.index(layer), SERVED_KINDS)


def test_bundle_round_trip(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["binary.ckpt", "heads.txt", "nuisance.ckpt", "stage.ckpt",
                     "tags.ckpt", "trunk.ckpt"]
    lines = (out / "heads.txt").read_text().splitlines()
    graph, store = model.trunk_graph, model.trunk_store
    fc = served_prefix_digest(graph, store, "fc")
    assert lines[0] == f"binary fc 2 softmax {fc}"
    assert lines[2] == ("stage conv22 14 softmax "
                        + served_prefix_digest(graph, store, "conv22"))
    assert lines[3] == f"tags fc 9 sigmoid-multilabel {fc}"
    assert fc != served_prefix_digest(graph, store, "conv22")

    # each head file holds its records from its branch layer on, no more
    for head in model.heads:
        path = out / f"{head.spec.task}.ckpt"
        _, suffix = load_checkpoint(path, start=head.spec.branch_layer)
        bidx = head.graph.index(head.spec.branch_layer)
        assert sorted(suffix.arrays) == sorted(
            name for name in head.store.arrays
            if head.graph.index(param_owner(name)) >= bidx)
        for name, arr in suffix.arrays.items():
            assert arr.tobytes() == head.store.arrays[name].tobytes(), name
        assert path.stat().st_size < (out / "trunk.ckpt").stat().st_size
        with pytest.raises(ValueError, match=f"^{path}: checkpoint lacks record"):
            load_checkpoint(path)

    loaded = load_bundle(out)
    assert [h.spec.prefix_sha256 for h in loaded.heads] == [
        line.split()[4] for line in lines]
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
    # a head's line must describe the head its checkpoint holds; {layer}
    # stands for the trunk's prefix digest at that layer
    ("nuisance conv19 3 softmax {conv19}",
     "'nuisance' is not the trunk's head for 3 classes and loss 'softmax'"),
    ("nuisance conv19 7 sigmoid-multilabel {conv19}",
     "'nuisance' is not the trunk's head for 7 classes and loss "
     "'sigmoid-multilabel'"),
    ("nuisance conv19 7 softmax {conv19}\nnuisance conv19 7 softmax {conv19}",
     "'nuisance' is already in the model"),
    ("nuisance conv19 0 softmax {conv19}",
     "heads.txt:1: a task needs at least 2 classes, got 0"),
    ("nuisance relu5 7 softmax {conv19}",
     "'relu5' is not a branch point; valid points: conv17, "),
    ("nuisance conv19 7 softmax {conv19}\nmissing fc 2 softmax {fc}",
     "lacks missing.ckpt"),
    # a 4-field line names a full-prefix head file, which this one is not
    ("nuisance conv19 7 softmax", "nuisance.ckpt: checkpoint lacks record"),
    ("nuisance conv19 7 softmax {fc}", "do not match the head's prefix digest"),
    ("nuisance conv19 7 softmax {conv19}x",
     "heads.txt:1: head 'nuisance' prefix digest"),
], ids=["class-count", "loss", "listed-twice", "no-classes",
        "not-a-branch-point", "missing-file", "four-fields", "other-digest",
        "not-a-digest"])
def test_load_bundle_rejects_a_heads_line_that_does_not_match_its_head(
        tmp_path, model, heads, message):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    digests = branch_digests(model.trunk_graph, model.trunk_store)
    (out / "heads.txt").write_text(heads.format(**digests) + "\n")
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
    with pytest.raises(ValueError, match="^'conv99' is not a branch point; "
                                         "valid points: conv17, "):
        bare.add_head(HeadSpec("t", "conv99", 7, "softmax"),
                      head.graph, head.store)
    # another input shape, then a prefix that differs below the branch
    # point: neither graph is the trunk's head graph
    other = build_trunk(ArchConfig.desk(num_identities=12, in_channels=3))
    with pytest.raises(ValueError, match="'t' is not the trunk's head for 7 "
                                         "classes"):
        bare.add_head(HeadSpec("t", "conv19", 7, "softmax"),
                      other, head.store)
    divergent = build_trunk(ArchConfig(scale_factor=0.25, num_identities=12,
                                       in_channels=1, stem_channels=36))
    assert divergent.input_shape == model.trunk_graph.input_shape
    with pytest.raises(ValueError, match="'t' is not the trunk's head for 7 "
                                         "classes"):
        bare.add_head(HeadSpec("t", "conv19", 7, "softmax"),
                      divergent, head.store)


def test_predict_all_rejects_wrong_input_shape(model):
    with pytest.raises(ValueError, match="does not match trunk input"):
        predict_all(model, np.zeros((2, 3, 56, 56), dtype=np.float32))
    with pytest.raises(ValueError, match="for one sample or more"):
        predict_all(model, inputs(0, 0))


def test_bundle_files_carry_no_momentum(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    starts = {h.spec.task: h.spec.branch_layer for h in model.heads}
    assert sorted(p.stem for p in out.glob("*.ckpt")) == sorted(
        [*starts, "trunk"])
    for path in out.glob("*.ckpt"):
        _, store = load_checkpoint(path, start=starts.get(path.stem))
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


def reseal_head(bundle, task, change, start=None):
    """Apply change(store) to a head checkpoint (its records from start on,
    or all of them) and write it back with a valid checksum."""
    path = bundle / f"{task}.ckpt"
    graph, store = load_checkpoint(path, start)
    change(store)
    save_checkpoint(path, graph, store, start)


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
    # a full-prefix head file, as older bundles hold, is compared record by
    # record
    assert model.trunk_store.arrays["bn1/beta"][0] == 0.0
    out = tmp_path / "bundle"
    save_full_prefix_bundle(out, model)
    reseal_head(out, "stage", PERTURBATIONS[record])
    with pytest.raises(ValueError, match=f"head 'stage' record '{record}' "
                                         "does not match the trunk"):
        load_bundle(out)


@pytest.mark.parametrize("record", sorted(PERTURBATIONS))
def test_a_suffix_head_over_a_trunk_that_differs_is_rejected(tmp_path, model,
                                                             record):
    # one served prefix bit of trunk.ckpt: every head's digest names it
    out = tmp_path / "bundle"
    save_bundle(out, model)
    reseal_head(out, "trunk", PERTURBATIONS[record])
    with pytest.raises(ValueError, match=re.escape(
            f"head 'binary': the served records of "
            f"{str(out / 'trunk.ckpt')!r} before 'fc' do not match the "
            f"head's prefix digest")):
        load_bundle(out)


def test_a_trunk_record_inference_does_not_read_keeps_the_digest(tmp_path,
                                                                  model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    reseal_head(out, "trunk",
                lambda s: s.trainable.__setitem__("conv1/w", False))
    loaded = load_bundle(out)
    assert loaded.trunk_store.trainable["conv1/w"] is False
    assert len(loaded.heads) == 4


def test_a_full_prefix_bundle_loads_and_serves_the_same_bits(tmp_path, model):
    save_bundle(tmp_path / "suffix", model)
    old = tmp_path / "full"
    save_full_prefix_bundle(old, model)
    assert all(len(line.split()) == 4
               for line in (old / "heads.txt").read_text().splitlines())
    for head in model.heads:  # the old head file holds the whole prefix
        full = load_checkpoint(old / f"{head.spec.task}.ckpt")[1]
        assert full.arrays.keys() == head.store.arrays.keys()
        assert ((old / f"{head.spec.task}.ckpt").stat().st_size
                > (tmp_path / "suffix" / f"{head.spec.task}.ckpt").stat().st_size)

    loaded = load_bundle(old)
    assert [h.spec.prefix_sha256 for h in loaded.heads] == [""] * 4
    for head in loaded.heads:  # the prefix is still held once
        assert head.store.arrays["conv1/w"] is loaded.trunk_store.arrays["conv1/w"]
    x = inputs(41, 3)
    a, b = predict_all(model, x), predict_all(loaded, x)
    assert a.identity_logits.tobytes() == b.identity_logits.tobytes()
    for task in a.tasks:
        assert a.tasks[task].scores.tobytes() == b.tasks[task].scores.tobytes()

    # saved again, it is written in the suffix-only form
    save_bundle(tmp_path / "again", loaded)
    for path in (tmp_path / "suffix").iterdir():
        assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes()


def test_prefix_digests_are_pinned_and_follow_the_served_records():
    # seeded float32 draws and no BLAS call: the same digests on any host
    graph = build_trunk(ArchConfig.desk())
    store = init_params(graph, TrainConfig.desk(seed=3))
    digests = prefix_digests(graph, served_records(store))
    assert len(digests) == len(graph.nodes) + 1
    for index, digest in enumerate(digests):
        assert digest == prefix_digest(graph, store, index, SERVED_KINDS), index
    assert digests[graph.index("conv22")][:16] == "ea3390c534acb148"
    assert digests[graph.index("fc")][:16] == "39de0259fccf0ee6"
    # momentum and trainable flags are not served: the digests stay
    store.momentum["conv1/w"][0] = 1.0
    store.trainable["conv1/w"] = False
    assert prefix_digests(graph, served_records(store)) == digests
    bump_first(store.running["bn1"].var)
    moved = prefix_digests(graph, served_records(store))
    bn1 = graph.index("bn1")
    assert moved[:bn1 + 1] == digests[:bn1 + 1]
    assert all(a != b for a, b in zip(moved[bn1 + 1:], digests[bn1 + 1:]))


def test_head_suffix_may_differ_from_the_trunk(tmp_path, model):
    # conv22 is where the stage head branches: retrained, not verified
    out = tmp_path / "bundle"
    save_bundle(out, model)
    reseal_head(out, "stage", lambda s: bump_first(s.arrays["conv22/w"]),
                "conv22")
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
    fresh = MultiHeadModel(model.trunk_graph, model.trunk_store)
    with pytest.raises(ValueError, match="head 'nuisance' record 'rc/bn2'"):
        fresh.add_head(head.spec, head.graph, partial)
    assert partial.arrays["conv1/w"] is not model.trunk_store.arrays["conv1/w"]
    assert fresh.heads == [] and len(bare.heads) == 1


def suffix_store(tmp_path, head):
    """The head's store as its suffix-only checkpoint loads: no record
    before the branch layer."""
    path, layer = tmp_path / "head.ckpt", head.spec.branch_layer
    save_checkpoint(path, head.graph, head.store, start=layer)
    return load_checkpoint(path, start=layer)[1]


def test_add_head_takes_a_suffix_only_store_as_it_is(tmp_path, model):
    head = model.heads[0]  # nuisance, branching at conv19
    store = suffix_store(tmp_path, head)
    bidx = head.graph.index("conv19")
    assert not prefix_records(head.graph, store, bidx)
    bare = MultiHeadModel(model.trunk_graph, model.trunk_store)
    bare.add_head(head.spec, head.graph, store)
    for name in frozen_names(head.graph, bidx):
        assert store.arrays[name] is model.trunk_store.arrays[name]
        assert store.trainable[name] is False
    assert store.running["bn1"] is model.trunk_store.running["bn1"]
    np.testing.assert_array_equal(predict_all(bare, inputs(4, 3)).tasks[
        "nuisance"].scores, run_head_standalone(head, inputs(4, 3)))


def test_a_refused_head_leaves_its_store_unchanged(tmp_path, model):
    head = model.heads[0]
    other = build_trunk(ArchConfig.desk(num_identities=12, in_channels=3))
    for store in (head.store.copy(), suffix_store(tmp_path, head)):
        tables = (store.arrays, store.momentum, store.trainable, store.running)
        before = [{k: id(v) for k, v in t.items()} for t in tables]
        with pytest.raises(ValueError, match="already in the model"):
            model.add_head(head.spec, head.graph, store)
        with pytest.raises(ValueError, match="is not the trunk's head"):
            model.add_head(HeadSpec("t", "conv19", 7, "softmax"), other, store)
        assert [{k: id(v) for k, v in t.items()} for t in tables] == before


def test_a_trunk_without_running_statistics_leaves_a_refused_head_as_it_was(
        tmp_path, model):
    # every check comes before share_prefix writes: a suffix-only conv22
    # head over a trunk with no running statistics keeps its own arrays
    head = next(h for h in model.heads if h.spec.task == "stage")
    trunk = model.trunk_store
    bare = MultiHeadModel(model.trunk_graph,
                          ParamStore(trunk.arrays, {}, trunk.trainable, {}))
    store = suffix_store(tmp_path, head)
    arrays, trainable = dict(store.arrays), dict(store.trainable)
    with pytest.raises(ValueError, match="^head 'stage' trunk batchnorm 'bn1' "
                                         "has no running statistics"):
        bare.add_head(head.spec, head.graph, store)
    assert store.arrays.keys() == arrays.keys()
    assert all(store.arrays[k] is v for k, v in arrays.items())
    assert store.trainable == trainable and bare.heads == []


def test_bundle_written_with_momentum_loads_without_it(tmp_path, model):
    out = tmp_path / "bundle"
    save_bundle(out, model)
    save_checkpoint(out / "trunk.ckpt", model.trunk_graph, model.trunk_store)
    for head in model.heads:
        save_checkpoint(out / f"{head.spec.task}.ckpt", head.graph, head.store,
                        start=head.spec.branch_layer)
    assert load_checkpoint(out / "trunk.ckpt")[1].momentum
    assert load_checkpoint(out / "stage.ckpt", start="conv22")[1].momentum

    loaded = load_bundle(out)
    assert loaded.trunk_store.momentum == {}
    assert all(h.store.momentum == {} for h in loaded.heads)
    x = inputs(37, 3)
    a, b = predict_all(model, x), predict_all(loaded, x)
    np.testing.assert_array_equal(a.identity_logits, b.identity_logits)
    for task in a.tasks:
        np.testing.assert_array_equal(a.tasks[task].scores, b.tasks[task].scores)


def test_a_bundle_that_cannot_serve_is_rejected_at_load(tmp_path, model):
    # an init_params trunk: every batchnorm counted 0 times
    graph = model.trunk_graph
    fresh = MultiHeadModel(graph, init_params(graph, TrainConfig.desk(seed=2)))
    br = make_branch(graph, fresh.trunk_store, "conv21", 3, seed=4)
    fresh.add_head(HeadSpec("late", "conv21", 3, "softmax"), br.graph, br.store)
    save_bundle(tmp_path / "fresh", fresh)
    assert load_checkpoint(tmp_path / "fresh" / "trunk.ckpt")[1].running
    with pytest.raises(ValueError, match=r"trunk\.ckpt': batchnorm 'bn1' has no "
                                         r"running statistics with a count >= 1"):
        load_bundle(tmp_path / "fresh")

    # a counted trunk, but a head whose retrained suffix was never counted
    late = MultiHeadModel(graph, model.trunk_store)
    br = make_branch(graph, model.trunk_store, "conv21", 3, seed=4)
    late.add_head(HeadSpec("late", "conv21", 3, "softmax"), br.graph, br.store)
    save_bundle(tmp_path / "late", late)
    first = next(n.name for n in graph.nodes[graph.index("conv21"):]
                 if n.kind == "batchnorm")
    with pytest.raises(ValueError, match=rf"late\.ckpt': batchnorm '{first}' has "
                                         rf"no running statistics"):
        load_bundle(tmp_path / "late")


@pytest.mark.parametrize("task", ["#x", "x#y", "a b", "tab\there", "end\n"])
def test_head_spec_rejects_a_task_heads_txt_cannot_hold(task):
    # heads.txt splits a line on whitespace and reads "#" as a comment
    with pytest.raises(ValueError, match=re.escape(f"task {task!r} holds "
                                                   f"whitespace or '#'")):
        HeadSpec(task, "conv19", 7, "softmax")


def test_a_classifier_named_cls_serves_and_round_trips(tmp_path, desk_graph,
                                                       warm_desk_store):
    graph, store = named_cls(desk_graph, warm_desk_store)
    br = make_branch(graph, store, "conv22", 7, warm=True, seed=5)
    model = MultiHeadModel(graph, store)
    model.add_head(HeadSpec("nuisance", "conv22", 7, "softmax"), br.graph,
                   br.store)
    x = inputs(3, 4)
    pred = predict_all(model, x)
    acts, _ = forward_pass(graph, store, x, mode="infer")
    assert pred.identity_logits.tobytes() == acts["cls"].tobytes()
    assert pred.tasks["nuisance"].scores.shape == (4, 7)
    save_bundle(tmp_path / "bundle", model)
    again = predict_all(load_bundle(tmp_path / "bundle"), x)
    assert again.identity_logits.tobytes() == pred.identity_logits.tobytes()
    assert (again.tasks["nuisance"].scores.tobytes()
            == pred.tasks["nuisance"].scores.tobytes())
