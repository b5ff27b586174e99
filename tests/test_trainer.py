import numpy as np
import pytest

from branchnet import ops
from branchnet.engine import backward_pass, boundary, forward_pass, infer
from branchnet.graph import (ArchConfig, BRANCH_POINT_NAMES, NODE_KINDS,
                             GraphSpec, LayerNode, build_trunk)
from branchnet.ops import BatchStats
from branchnet.params import (ParamStore, checkpoint_bytes, frozen_checksum,
                              parse_checkpoint)
from branchnet.train import (Dataset, TrainConfig, _batch_indices,
                             evaluate_accuracy, finetune, init_params, lr_at,
                             make_branch, sgd_momentum_step, train)
from conftest import named_cls, to_nchw
from oracles import conv2d_backward_batch_gemm


def fc_graph(d, m, loss="softmax"):
    head = "softmax-head" if loss == "softmax" else "sigmoid-head"
    return GraphSpec((LayerNode("fc", "fc", {"in": d, "out": m}, ("input",)),
                      LayerNode("head", head, {}, ("fc",))),
                     input_shape=(d, 1, 1))


def clone(store):
    return store.copy()


def stores_equal(a, b):
    if set(a.arrays) != set(b.arrays):
        return False
    return all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays) and \
        all(np.array_equal(a.momentum[k], b.momentum[k]) for k in a.momentum)


# learning-rate schedule


def test_learning_rate_step_decay_values():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 0.1
    assert lr_at(9_999, cfg) == 0.1
    assert lr_at(10_000, cfg) == 0.025
    assert lr_at(25_000, cfg) == 0.00625
    assert lr_at(29_999, cfg) == 0.00625


def test_learning_rate_is_piecewise_constant_and_nonincreasing():
    cfg = TrainConfig(lr_decay_every=7)
    rates = [lr_at(t, cfg) for t in range(50)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert len(set(rates)) == 50 // 7 + 1
    for t in range(50):
        assert rates[t] == pytest.approx(0.1 * 4.0 ** (-(t // 7)))


def test_learning_rate_rejects_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        lr_at(-1, TrainConfig())


# optimizer


def test_momentum_two_step_unroll():
    store = ParamStore()
    store.arrays["p/w"] = np.zeros((1,), dtype=np.float32)
    store.momentum["p/w"] = np.zeros((1,), dtype=np.float32)
    store.trainable["p/w"] = True
    g = {"p/w": np.ones((1,), dtype=np.float32)}
    sgd_momentum_step(store, g, rate=1.0, momentum_coeff=0.9)
    assert store.arrays["p/w"][0] == pytest.approx(-1.0)
    sgd_momentum_step(store, g, rate=1.0, momentum_coeff=0.9)
    # v1 = -1; v2 = 0.9*(-1) - 1 = -1.9; w = -1 + -1.9
    assert store.arrays["p/w"][0] == pytest.approx(-2.9)


def test_missing_velocity_starts_from_rest():
    a, b = ParamStore(), ParamStore()
    for store in (a, b):
        store.arrays["p/w"] = np.array([0.5, -1.0], dtype=np.float32)
        store.trainable["p/w"] = True
    a.momentum["p/w"] = np.zeros(2, dtype=np.float32)
    g = {"p/w": np.array([0.3, 0.7], dtype=np.float32)}
    for _ in range(2):
        sgd_momentum_step(a, g, rate=0.1, momentum_coeff=0.9)
        sgd_momentum_step(b, g, rate=0.1, momentum_coeff=0.9)
    assert stores_equal(a, b)


def test_zero_momentum_is_plain_sgd():
    store = ParamStore()
    store.arrays["p/w"] = np.array([2.0], dtype=np.float32)
    store.momentum["p/w"] = np.zeros(1, dtype=np.float32)
    store.trainable["p/w"] = True
    sgd_momentum_step(store, {"p/w": np.array([0.5])}, 0.2, 0.0)
    assert store.arrays["p/w"][0] == pytest.approx(2.0 - 0.2 * 0.5)


def test_frozen_arrays_ignore_gradients():
    store = ParamStore()
    store.arrays["p/w"] = np.array([1.0], dtype=np.float32)
    store.momentum["p/w"] = np.array([0.5], dtype=np.float32)
    store.trainable["p/w"] = False
    before = store.arrays["p/w"].copy()
    sgd_momentum_step(store, {"p/w": np.array([100.0])}, 1.0, 0.9)
    np.testing.assert_array_equal(store.arrays["p/w"], before)
    assert store.momentum["p/w"][0] == 0.5


def test_missing_gradient_for_trainable_array_errors():
    store = ParamStore()
    store.arrays["p/w"] = np.zeros(1, dtype=np.float32)
    store.momentum["p/w"] = np.zeros(1, dtype=np.float32)
    store.trainable["p/w"] = True
    with pytest.raises(ValueError, match="missing gradient"):
        sgd_momentum_step(store, {}, 1.0, 0.9)


# initialization


def test_init_statistics_within_three_standard_errors():
    graph = build_trunk(ArchConfig())
    store = init_params(graph, TrainConfig(seed=123, init_std=0.1))
    w = store.arrays["fc/w"]
    n = w.size
    assert n == 3_200_000
    se_mean = 0.1 / np.sqrt(n)
    assert abs(float(w.mean())) < 3 * se_mean
    se_std = 0.1 / np.sqrt(2 * n)
    assert abs(float(w.std()) - 0.1) < 3 * se_std


def test_init_structure_and_determinism():
    graph = build_trunk(ArchConfig.desk())
    a = init_params(graph, TrainConfig.desk(seed=5))
    b = init_params(graph, TrainConfig.desk(seed=5))
    c = init_params(graph, TrainConfig.desk(seed=6))
    assert stores_equal(a, b)
    assert not stores_equal(a, c)
    np.testing.assert_array_equal(a.arrays["bn1/gamma"], 1.0)
    np.testing.assert_array_equal(a.arrays["bn1/beta"], 0.0)
    np.testing.assert_array_equal(a.arrays["fc/b"], 0.0)
    assert all(np.all(v == 0) for v in a.momentum.values())
    assert all(a.trainable.values())
    assert all(s.count == 0 for s in a.running.values())


def test_init_std_zero_gives_zero_weights():
    graph = fc_graph(4, 3)
    store = init_params(graph, TrainConfig(init_std=0.0))
    np.testing.assert_array_equal(store.arrays["fc/w"], 0.0)


# train loop


def toy_dataset(n=60, d=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    x = rng.standard_normal((n, d)).astype(np.float32)
    x[:, 0] = np.where(labels == 1, 2.0, -2.0) + 0.1 * x[:, 0]
    return Dataset(x.reshape(n, d, 1, 1), labels)


def test_zero_minibatches_leaves_store_untouched():
    graph = fc_graph(4, 2)
    store = init_params(graph, TrainConfig(seed=1))
    before = clone(store)
    log = train(graph, store, toy_dataset(), TrainConfig(max_minibatches=0, seed=1))
    assert log.rows == []
    assert stores_equal(store, before)


def test_training_is_bitwise_reproducible():
    graph = fc_graph(4, 2)
    cfg = TrainConfig(batch_size=16, max_minibatches=40, seed=3)
    s1 = init_params(graph, cfg)
    s2 = init_params(graph, cfg)
    log1 = train(graph, s1, toy_dataset(), cfg)
    log2 = train(graph, s2, toy_dataset(), cfg)
    assert stores_equal(s1, s2)
    assert log1.rows == log2.rows
    assert log1.to_text() == log2.to_text()


def test_separable_toy_reaches_full_accuracy():
    graph = fc_graph(4, 2)
    cfg = TrainConfig(batch_size=16, max_minibatches=500, seed=2)
    store = init_params(graph, cfg)
    data = toy_dataset()
    log = train(graph, store, data, cfg)
    assert evaluate_accuracy(graph, store, data) == 1.0
    assert log.rows[-1][3] == 1.0  # final minibatch accuracy
    assert log.rows[-1][2] < log.rows[0][2]  # loss went down


def test_loss_decreases_under_the_logged_schedule():
    graph = fc_graph(4, 2)
    cfg = TrainConfig(batch_size=16, max_minibatches=30, lr_decay_every=10, seed=4)
    store = init_params(graph, cfg)
    log = train(graph, store, toy_dataset(), cfg)
    rates = [row[1] for row in log.rows]
    assert rates[:10] == [0.1] * 10
    assert rates[10:20] == [0.025] * 10
    assert rates[20:] == [0.00625] * 10


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_loss_aborts_with_minibatch_index():
    graph = fc_graph(2, 2)
    cfg = TrainConfig(batch_size=4, max_minibatches=10, seed=0)
    store = init_params(graph, cfg)
    bad = Dataset(np.full((8, 2, 1, 1), np.inf, dtype=np.float32),
                  np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="non-finite loss at minibatch 0"):
        train(graph, store, bad, cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_a_step_that_leaves_a_non_finite_weight_aborts():
    # the loss of step 0 is finite; the update it makes is not
    graph = fc_graph(4, 2)
    cfg = TrainConfig(lr0=1e39, batch_size=16, max_minibatches=3, seed=1)
    store = init_params(graph, cfg)
    with pytest.raises(ValueError, match=r"^non-finite value in 'fc/[bw]' "
                                         r"after minibatch 0; training"):
        train(graph, store, toy_dataset(), cfg)


def test_empty_dataset_is_rejected():
    graph = fc_graph(2, 2)
    store = init_params(graph, TrainConfig())
    empty = Dataset(np.zeros((0, 2, 1, 1), dtype=np.float32),
                    np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        train(graph, store, empty, TrainConfig(max_minibatches=1))


def test_dataset_smaller_than_batch_samples_with_replacement():
    graph = fc_graph(4, 2)
    cfg = TrainConfig(batch_size=32, max_minibatches=20, seed=5)
    store = init_params(graph, cfg)
    log = train(graph, store, toy_dataset(n=6), cfg)
    assert len(log.rows) == 20


def test_train_log_format():
    graph = fc_graph(4, 2)
    cfg = TrainConfig(batch_size=8, max_minibatches=3, seed=6)
    store = init_params(graph, cfg)
    log = train(graph, store, toy_dataset(), cfg)
    text = log.to_text()
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert any("init_std" in ln for ln in header)
    assert "# loss=softmax" in header and "# train_from=0" in header
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body[0].split("\t") == ["index", "rate", "loss", "accuracy"]
    assert len(body) == 1 + 3


# dataset and config validation


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32), np.zeros(3))


def test_a_cached_activation_must_have_a_row_per_sample():
    x = np.zeros((3, 1, 2, 2), dtype=np.float32)
    Dataset(x, np.zeros(3), {"relu1": np.zeros((3, 4, 2, 2), np.float32)})
    with pytest.raises(ValueError, match="3 inputs vs 2 rows of cached "
                                         "activation 'relu1'"):
        Dataset(x, np.zeros(3), {"relu1": np.zeros((2, 4, 2, 2), np.float32)})


def test_train_config_validation_and_desk_defaults():
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(init_std=-0.1)
    desk = TrainConfig.desk()
    assert (desk.batch_size, desk.lr_decay_every, desk.max_minibatches) == \
        (32, 500, 5_000)
    assert (desk.lr0, desk.lr_decay_factor, desk.momentum_coeff) == (0.1, 4.0, 0.9)
    full = TrainConfig()
    assert (full.batch_size, full.lr_decay_every, full.max_minibatches) == \
        (400, 10_000, 30_000)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("lr0", NAN), ("lr0", INF), ("lr_decay_factor", NAN),
    ("lr_decay_factor", INF), ("lr_decay_factor", 0.0),
    ("momentum_coeff", NAN), ("momentum_coeff", -3.0),
    ("momentum_coeff", 7.0), ("momentum_coeff", 1.0),
    ("init_std", NAN), ("init_std", INF)])
def test_a_train_config_that_cannot_run_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must lie in "):
        TrainConfig(**{field: value})


def test_train_config_mapping_round_trip():
    cfg = TrainConfig.desk(seed=11, max_minibatches=77)
    assert TrainConfig.from_mapping(cfg.to_mapping()) == cfg


def test_a_graph_that_does_not_end_in_a_head_is_rejected():
    headless = GraphSpec(fc_graph(4, 2).nodes[:1], input_shape=(4, 1, 1))
    store = init_params(headless, TrainConfig())
    with pytest.raises(ValueError, match="^the graph's last node 'fc' is not "
                                         "a head node$"):
        train(headless, store, toy_dataset(), TrainConfig(max_minibatches=1))
    with pytest.raises(ValueError, match="last node 'fc'"):
        evaluate_accuracy(headless, store, toy_dataset())


# branches


@pytest.fixture(scope="module")
def trunk():
    graph = build_trunk(ArchConfig.desk(num_identities=6))
    store = init_params(graph, TrainConfig.desk(seed=21))
    rng = np.random.default_rng(42)
    x = rng.standard_normal((8, 1, 56, 56)).astype(np.float32)
    _, updates = forward_pass(graph, store, x, mode="train")
    store.running.update(updates)
    return graph, store


def branch_dataset(n=40, seed=1, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 56, 56)).astype(np.float32)
    return Dataset(x, rng.integers(0, classes, size=n))


def test_make_branch_shares_frozen_arrays_by_reference(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "conv22", 5, seed=3)
    assert br.store.arrays["conv1/w"] is store.arrays["conv1/w"]
    assert br.store.momentum["conv1/w"] is store.momentum["conv1/w"]
    assert br.store.running["bn1"] is store.running["bn1"]
    assert br.store.trainable["conv1/w"] is False
    assert store.trainable["conv1/w"] is True  # trunk flags untouched


def test_make_branch_on_a_weights_only_trunk(trunk):
    graph, store = trunk
    weights = ParamStore(store.arrays, {}, store.trainable, store.running)
    br = make_branch(graph, weights, "conv22", 5, seed=3)
    assert br.store.arrays["conv1/w"] is store.arrays["conv1/w"]
    assert "conv1/w" not in br.store.momentum
    assert all(np.all(br.store.momentum[n] == 0)
               for n, flag in br.store.trainable.items() if flag)
    before = frozen_checksum(br.graph, br.store, br.branch_index)
    finetune(br, branch_dataset(n=16), TrainConfig.desk(batch_size=8,
                                                        max_minibatches=2))
    assert frozen_checksum(br.graph, br.store, br.branch_index) == before
    # the saved checkpoint loads: frozen parameters get zero momentum
    _, loaded = parse_checkpoint(checkpoint_bytes(br.graph, br.store))
    assert set(loaded.momentum) == set(loaded.arrays)
    np.testing.assert_array_equal(loaded.momentum["conv1/w"], 0.0)
    for name, flag in br.store.trainable.items():
        if flag:
            np.testing.assert_array_equal(loaded.momentum[name],
                                          br.store.momentum[name])


def test_a_warm_branch_draws_a_classifier_named_cls_fresh(desk_graph,
                                                          warm_desk_store):
    graph, store = named_cls(desk_graph, warm_desk_store)
    warm = make_branch(graph, store, "conv22", 7, warm=True, seed=3)
    cold = make_branch(graph, store, "conv22", 7, seed=3)
    assert warm.store.arrays["cls/w"].shape == (80, 7)
    np.testing.assert_array_equal(warm.store.arrays["cls/w"],
                                  cold.store.arrays["cls/w"])
    np.testing.assert_array_equal(warm.store.arrays["conv-bn320/w"],
                                  store.arrays["conv-bn320/w"])
    log = finetune(warm, branch_dataset(n=8, classes=7),
                   TrainConfig.desk(batch_size=4, max_minibatches=1))
    assert len(log.rows) == 1


def test_make_branch_rejects_a_trunk_without_running_statistics(trunk):
    graph, store = trunk
    bare = ParamStore(store.arrays, store.momentum, store.trainable, {})
    with pytest.raises(ValueError, match="batchnorm 'bn1' has no running "
                                         "statistics: they are missing"):
        make_branch(graph, bare, "conv22", 5, seed=3)


def test_make_branch_partitions_by_topological_index(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "conv22", 5, seed=3)
    bidx = br.branch_index
    for name, flag in br.store.trainable.items():
        owner = name.split("/")[0]
        assert flag == (br.graph.index(owner) >= bidx)
    # the same block's projection sits after its 3x3, so it retrains too
    br19 = make_branch(graph, store, "conv19", 5, seed=3)
    assert br19.store.trainable["conv19/w"] is True
    assert br19.store.trainable["conv18/w"] is False
    assert br19.store.trainable["shortcut8/w"] is False


def test_cold_branch_reinitializes_and_fc_is_fresh(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "conv22", 5, warm=False, seed=3)
    assert not np.array_equal(br.store.arrays["conv22/w"], store.arrays["conv22/w"])
    assert br.store.arrays["fc/w"].shape == (80, 5)
    assert br.store.running["bn22"].count == 0
    np.testing.assert_array_equal(br.store.arrays["bn22/gamma"], 1.0)


def test_warm_branch_copies_retrained_weights(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "conv22", 5, warm=True, seed=3)
    np.testing.assert_array_equal(br.store.arrays["conv22/w"],
                                  store.arrays["conv22/w"])
    assert br.store.arrays["conv22/w"] is not store.arrays["conv22/w"]
    assert br.store.arrays["fc/w"].shape == (80, 5)  # still fresh
    assert br.store.running["bn22"].count == store.running["bn22"].count


def test_make_branch_rejects_unknown_layer_and_loss(trunk):
    graph, store = trunk
    with pytest.raises(ValueError, match="conv17, conv19, conv21, conv22"):
        make_branch(graph, store, "conv3", 4)
    with pytest.raises(ValueError, match="unknown loss"):
        make_branch(graph, store, "fc", 4, loss="mse")


def test_finetune_leaves_frozen_prefix_bitwise_intact(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "conv-bn320", 3, seed=7)
    before = frozen_checksum(br.graph, br.store, br.branch_index)
    trunk_before = {k: v.copy() for k, v in store.arrays.items()}
    finetune(br, branch_dataset(), TrainConfig.desk(seed=7, max_minibatches=8,
                                                    batch_size=8))
    assert frozen_checksum(br.graph, br.store, br.branch_index) == before
    for k, v in store.arrays.items():
        np.testing.assert_array_equal(v, trunk_before[k])
    assert not np.array_equal(br.store.arrays["fc/w"],
                              np.zeros_like(br.store.arrays["fc/w"]))


def test_finetune_at_fc_equals_logistic_regression(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "fc", 3, seed=9)
    data = branch_dataset(n=40, seed=2)
    cfg = TrainConfig(batch_size=8, max_minibatches=25, lr_decay_every=10, seed=13)

    acts, _ = forward_pass(graph, store, data.inputs, mode="infer")
    feats = to_nchw(acts["relu320"])  # (n, 80, 1, 1), as fc_graph's input
    lr_graph = fc_graph(feats.shape[1], 3)
    lr_store = ParamStore()
    lr_store.arrays = {"fc/w": br.store.arrays["fc/w"].copy(),
                       "fc/b": br.store.arrays["fc/b"].copy()}
    lr_store.momentum = {"fc/w": np.zeros_like(br.store.arrays["fc/w"]),
                         "fc/b": np.zeros_like(br.store.arrays["fc/b"])}
    lr_store.trainable = {"fc/w": True, "fc/b": True}
    lr_data = Dataset(feats, data.labels)

    log_branch = finetune(br, data, cfg)
    log_lr = train(lr_graph, lr_store, lr_data, cfg)
    assert [r[2] for r in log_branch.rows] == [r[2] for r in log_lr.rows]
    np.testing.assert_array_equal(br.store.arrays["fc/w"], lr_store.arrays["fc/w"])
    np.testing.assert_array_equal(br.store.arrays["fc/b"], lr_store.arrays["fc/b"])


def test_inputs_of_another_size_than_the_graph_declares_are_refused(trunk):
    graph, store = trunk
    rng = np.random.default_rng(3)
    small = Dataset(rng.standard_normal((8, 1, 40, 40)).astype(np.float32),
                    rng.integers(0, 6, size=8))
    shapes = r"\(\d+, 1, 40, 40\) does not match .* \(1, 56, 56\)"
    with pytest.raises(ValueError, match=shapes):
        train(graph, clone(store), small,
              TrainConfig.desk(batch_size=4, max_minibatches=1))
    with pytest.raises(ValueError, match=shapes):
        evaluate_accuracy(graph, store, small)


def test_training_with_everything_frozen_changes_nothing(trunk):
    graph, store = trunk
    br = make_branch(graph, store, "fc", 3, seed=4)
    for k in br.store.trainable:
        br.store.trainable[k] = False
    before = {k: v.copy() for k, v in br.store.arrays.items()}
    log = train(br.graph, br.store, branch_dataset(),
                TrainConfig.desk(max_minibatches=3, batch_size=8))
    assert len(log.rows) == 3
    assert log.header["train_from"] == len(br.graph.nodes)
    for k, v in br.store.arrays.items():
        np.testing.assert_array_equal(v, before[k])


def full_forward_finetune(branch, dataset, config):
    """finetune() as a loop that runs the whole forward from node 0 on every
    minibatch; returns the log rows."""
    graph, store, stop = branch.graph, branch.store, branch.branch_index
    rows = []
    for t in range(config.max_minibatches):
        idx = _batch_indices(len(dataset), t, config)
        acts, updates = forward_pass(graph, store, dataset.inputs[idx],
                                     mode="train", train_from=stop)
        store.running.update(updates)
        labels = dataset.labels[idx]
        value, _, logit_grad = ops.softmax_cross_entropy(acts["fc"], labels)
        acc = float((acts["fc"].argmax(axis=1) == labels).mean())
        grads, _ = backward_pass(graph, store, acts, {"fc": logit_grad},
                                 stop=stop)
        rate = lr_at(t, config)
        sgd_momentum_step(store, grads, rate, config.momentum_coeff)
        rows.append((t, rate, value, acc))
    return rows


@pytest.mark.parametrize("layer", BRANCH_POINT_NAMES)
def test_train_reads_the_freeze_boundary_from_the_store(trunk, layer):
    graph, store = trunk
    data = branch_dataset(n=20, seed=8)
    cfg = TrainConfig.desk(batch_size=8, max_minibatches=3, seed=19)
    direct = make_branch(graph, store, layer, 3, seed=12)
    tuned = make_branch(graph, store, layer, 3, seed=12)
    before = frozen_checksum(direct.graph, direct.store, direct.branch_index)
    log = train(direct.graph, direct.store, data, cfg)
    assert log.header["train_from"] == direct.branch_index
    assert log.rows == finetune(tuned, data, cfg).rows
    assert checkpoint_bytes(direct.graph, direct.store) == \
        checkpoint_bytes(tuned.graph, tuned.store)
    assert frozen_checksum(direct.graph, direct.store,
                           direct.branch_index) == before


@pytest.mark.parametrize("layer", BRANCH_POINT_NAMES)
def test_cached_prefix_finetune_is_bitwise_equal_to_full_forward(trunk, layer):
    # conv17 and conv22 read a residual skip from the frozen prefix too
    graph, store = trunk
    data = branch_dataset(n=20, seed=5)  # not a multiple of the batch size
    cfg = TrainConfig.desk(batch_size=8, max_minibatches=4, seed=17)
    cached = make_branch(graph, store, layer, 3, seed=11)
    full = make_branch(graph, store, layer, 3, seed=11)
    log = finetune(cached, data, cfg)
    assert log.rows == full_forward_finetune(full, data, cfg)
    assert stores_equal(cached.store, full.store)
    assert cached.store.running.keys() == full.store.running.keys()
    for bn, rs in full.store.running.items():
        np.testing.assert_array_equal(cached.store.running[bn].mean, rs.mean)
        np.testing.assert_array_equal(cached.store.running[bn].var, rs.var)
        assert cached.store.running[bn].count == rs.count


def with_boundary(graph, store, data, index):
    """data with its boundary activations at index, from store's prefix."""
    acts = infer(graph, store, {"input": data.inputs}, boundary(graph, index))
    return Dataset(data.inputs, data.labels, acts)


@pytest.mark.parametrize("layer", ["conv17", "fc"])
def test_a_dataset_holding_its_boundary_skips_the_prefix(trunk, layer):
    # the poisoned store's prefix weights and statistics are all NaN, so
    # any prefix node that ran would leave NaN in the loss or the logits
    graph, store = trunk
    data, val = branch_dataset(n=20, seed=6), branch_dataset(n=9, seed=3)
    cfg = TrainConfig.desk(batch_size=8, max_minibatches=3, seed=23)
    plain = make_branch(graph, store, layer, 3, seed=13)
    poisoned = make_branch(graph, store.copy(), layer, 3, seed=13)
    index = plain.branch_index
    for name, flag in poisoned.store.trainable.items():
        if not flag:
            poisoned.store.arrays[name][...] = np.nan
    for bn, rs in poisoned.store.running.items():
        if graph.index(bn) < index:
            rs.mean[...] = np.nan
    cached = with_boundary(graph, store, data, index)
    assert finetune(poisoned, cached, cfg).rows == finetune(plain, data, cfg).rows
    for name, flag in plain.store.trainable.items():
        if flag:
            assert plain.store.arrays[name].tobytes() == \
                poisoned.store.arrays[name].tobytes(), name
    cached_val = with_boundary(graph, store, val, index)
    assert evaluate_accuracy(poisoned.graph, poisoned.store, cached_val) == \
        evaluate_accuracy(plain.graph, plain.store, val)
    with pytest.raises(ValueError, match="non-finite loss"):
        finetune(poisoned, data, cfg)


@pytest.mark.parametrize("layer", ["conv17", "fc"])
def test_evaluate_resumes_at_the_branch_over_a_plain_or_cached_dataset(
        trunk, layer, monkeypatch):
    graph, store = trunk
    branch = make_branch(graph, store, layer, 3, warm=True, seed=14)
    index = branch.branch_index
    val = branch_dataset(n=37, seed=8)  # not a multiple of CHUNK
    cached = with_boundary(graph, store, val, index)
    logits = forward_pass(branch.graph, branch.store, val.inputs,
                          mode="infer")[0]["fc"]
    whole = float((logits.argmax(axis=1) == val.labels).mean())
    starts = []

    def recorded(graph, store, sources, keep, start=0):
        starts.append(start)
        return infer(graph, store, sources, keep, start)

    monkeypatch.setitem(evaluate_accuracy.__globals__, "infer", recorded)
    assert evaluate_accuracy(branch.graph, branch.store, val) == whole
    assert starts == [0, index]
    assert evaluate_accuracy(branch.graph, branch.store, cached) == whole
    assert starts == [0, index, index]


def test_no_steps_on_an_empty_dataset_run_no_prefix_pass(trunk, monkeypatch):
    graph, store = trunk
    branch = make_branch(graph, store, "conv22", 3, seed=2)
    empty = Dataset(np.zeros((0, 1, 56, 56), dtype=np.float32),
                    np.zeros(0, dtype=np.int64))

    def no_pass(*args, **kwargs):
        raise AssertionError("an empty dataset ran a forward pass")

    monkeypatch.setitem(infer.__globals__, "forward_pass", no_pass)
    log = finetune(branch, empty, TrainConfig.desk(max_minibatches=0))
    assert log.rows == [] and log.header["train_from"] == branch.branch_index


def test_a_trunk_step_runs_no_prefix_pass(trunk, monkeypatch):
    graph, store = trunk
    store = store.copy()

    def no_infer(*args, **kwargs):
        raise AssertionError("a trunk step ran an inference pass")

    monkeypatch.setitem(train.__globals__, "infer", no_infer)
    log = train(graph, store, branch_dataset(n=10, classes=6),
                TrainConfig.desk(batch_size=4, max_minibatches=2, seed=2))
    assert log.header["train_from"] == 0 and len(log.rows) == 2


def test_evaluate_accuracy_multilabel_elementwise():
    graph = fc_graph(3, 3, loss="sigmoid-multilabel")
    store = init_params(graph, TrainConfig(init_std=0.0))
    store.arrays["fc/w"] = np.eye(3, dtype=np.float32) * 10.0
    y = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.float64)
    x = np.array([[1, -1, 1], [1, 1, 1]], dtype=np.float32).reshape(2, 3, 1, 1)
    data = Dataset(x, y)
    # row 2 predicts [1,1,1] vs [1,1,0]: 5 of 6 cells agree
    acc = evaluate_accuracy(graph, store, data)
    assert acc == pytest.approx(5 / 6)


def test_one_hot_softmax_labels_score_as_class_indices():
    graph = build_trunk(ArchConfig.desk(num_identities=7))
    store = init_params(graph, TrainConfig.desk(seed=2))
    x = np.random.default_rng(3).standard_normal((7, 1, 56, 56)).astype(np.float32)
    store.running.update(forward_pass(graph, store, x, mode="train")[1])
    indices, one_hot = Dataset(x, np.arange(7)), Dataset(x, np.eye(7))
    acc = evaluate_accuracy(graph, store, indices)
    assert evaluate_accuracy(graph, store, one_hot) == acc
    cfg = TrainConfig.desk(batch_size=7, max_minibatches=2, seed=4)
    logs = [train(graph, store.copy(), data, cfg) for data in (indices, one_hot)]
    assert logs[0].rows == logs[1].rows


# saved-for-backward contexts


def test_saved_contexts_give_the_same_gradients_and_are_freed(trunk):
    graph, store = trunk
    x = branch_dataset(n=8, seed=9).inputs
    saved = {}
    acts, _ = forward_pass(graph, store, x, mode="train", saved=saved)
    bn_names = [n.name for n in graph.nodes if n.kind == "batchnorm"]
    assert sorted(saved) == sorted(bn_names)
    assert all(isinstance(c, BatchStats) for c in saved.values())
    gy = np.random.default_rng(3).standard_normal(acts["fc"].shape).astype(np.float32)
    with_ctx, gx_ctx = backward_pass(graph, store, acts, {"fc": gy}, saved=saved)
    assert saved == {}
    without, gx = backward_pass(graph, store, acts, {"fc": gy})
    assert with_ctx.keys() == without.keys()
    for name, g in without.items():
        assert g.tobytes() == with_ctx[name].tobytes(), name
    assert gx.tobytes() == gx_ctx.tobytes()


def test_inference_passes_keep_no_context(trunk):
    graph, store = trunk
    x = branch_dataset(n=4, seed=9).inputs
    saved = {}
    forward_pass(graph, store, x, mode="infer", saved=saved)
    assert saved == {}
    # a frozen prefix runs in inference mode even in a train-mode pass
    stop = graph.index("conv19")
    forward_pass(graph, store, x, mode="train", train_from=stop, saved=saved)
    assert saved and all(graph.index(name) >= stop for name in saved)


def test_train_with_contexts_matches_a_context_free_loop(trunk):
    graph, trained = trunk
    data = branch_dataset(n=20, seed=6, classes=6)
    cfg = TrainConfig.desk(batch_size=8, max_minibatches=3, seed=13)
    store = trained.copy()
    train(graph, store, data, cfg)
    loop = trained.copy()
    for t in range(cfg.max_minibatches):
        idx = _batch_indices(len(data), t, cfg)
        acts, updates = forward_pass(graph, loop, data.inputs[idx], mode="train")
        loop.running.update(updates)
        _, _, logit_grad = ops.softmax_cross_entropy(acts["fc"], data.labels[idx])
        grads, _ = backward_pass(graph, loop, acts, {"fc": logit_grad})
        sgd_momentum_step(loop, grads, lr_at(t, cfg), cfg.momentum_coeff)
    assert checkpoint_bytes(graph, store) == checkpoint_bytes(graph, loop)


# input gradients nobody reads


def reference_input_grad(graph, store, acts, gy):
    """The (n, c, h, w) input gradient of a full backward that computes and
    keeps every input gradient, its convs those of the batch-GEMM oracle."""
    grads = {"fc": gy}
    for node in reversed(graph.nodes):
        g = grads.pop(node.name, None)
        if g is None:
            continue
        kind = NODE_KINDS[node.kind]
        params = {s: store.arrays[f"{node.name}/{s}"] for s in kind.params(node.attrs)}
        ins = [acts[src] for src in node.inputs]
        if node.kind == "conv":
            in_grads = conv2d_backward_batch_gemm(
                ins[0], params["w"], params.get("b"), g, node.attrs["stride"],
                node.attrs["pad"], ops.GEMM_ROWS)[:1]
        else:
            in_grads, _ = kind.backward(node.attrs, params, ins, g, None,
                                        (True,) * len(ins))
        for src, gi in zip(node.inputs, in_grads):
            grads[src] = grads[src] + gi if src in grads else gi
    return to_nchw(grads["input"])


@pytest.fixture
def conv_input_grad_flags(monkeypatch):
    """(weight shape, input_grad flag) of every ops.conv2d_backward call."""
    calls = []
    real = ops.conv2d_backward

    def spy(x, weights, bias, output_grad, stride=1, padding=0, input_grad=True):
        calls.append((weights.shape, input_grad))
        return real(x, weights, bias, output_grad, stride, padding, input_grad)

    monkeypatch.setattr(ops, "conv2d_backward", spy)
    return calls


def test_skipping_the_input_gradient_keeps_every_parameter_gradient(trunk):
    graph, store = trunk
    x = branch_dataset(n=8, seed=10).inputs
    acts, _ = forward_pass(graph, store, x, mode="train")
    gy = np.random.default_rng(4).standard_normal(acts["fc"].shape).astype(np.float32)
    full, gx = backward_pass(graph, store, acts, {"fc": gy})
    params_only, none = backward_pass(graph, store, acts, {"fc": gy},
                                      input_grad=False)
    assert none is None and gx.shape == x.shape
    assert params_only.keys() == full.keys()
    for name, g in full.items():
        assert g.tobytes() == params_only[name].tobytes(), name
    # the default call's input gradient is the oracle full backward's
    assert gx.tobytes() == reference_input_grad(graph, store, acts, gy).tobytes()


def test_train_asks_no_conv_for_the_network_input_gradient(trunk,
                                                           conv_input_grad_flags):
    graph, store = trunk
    cfg = TrainConfig.desk(batch_size=8, max_minibatches=1, seed=3)
    train(graph, store.copy(), branch_dataset(n=8, seed=2, classes=6), cfg)
    stem = store.arrays["conv1/w"].shape
    assert (stem, False) in conv_input_grad_flags
    assert all(flag for shape, flag in conv_input_grad_flags if shape != stem)


@pytest.mark.parametrize("layer", BRANCH_POINT_NAMES)
def test_boundary_input_gradient_is_skipped_and_changes_no_gradient(
        trunk, layer, conv_input_grad_flags):
    graph, store = trunk
    stop = graph.index(layer)
    x = branch_dataset(n=8, seed=12).inputs
    acts, _ = forward_pass(graph, store, x, mode="train", train_from=stop)
    gy = np.random.default_rng(5).standard_normal(acts["fc"].shape).astype(np.float32)
    full, _ = backward_pass(graph, store, acts, {"fc": gy})
    del conv_input_grad_flags[:]
    suffix, gx = backward_pass(graph, store, acts, {"fc": gy}, stop=stop)
    assert gx is None
    assert suffix.keys() == {name for name in full
                             if graph.index(name.rpartition("/")[0]) >= stop}
    for name, g in suffix.items():
        assert g.tobytes() == full[name].tobytes(), name
    # a conv reading the frozen prefix computes no input gradient
    convs = [n for n in graph.nodes[stop:] if n.kind == "conv"]
    want = [(store.arrays[f"{n.name}/w"].shape, graph.index(n.inputs[0]) >= stop)
            for n in reversed(convs)]
    assert conv_input_grad_flags == want
    assert layer == "fc" or not want[-1][1]


def test_a_trunk_step_gathers_only_the_convs_that_are_not_plain_1x1(
        trunk, monkeypatch):
    # One gather per direction for each of the 15 convs with a window or a
    # stride; the 13 plain 1x1 convs read their input as their columns.
    graph, store = trunk
    gathers = []
    real = ops._im2col
    monkeypatch.setattr(ops, "_im2col",
                        lambda x, *geom: gathers.append(geom[:3]) or real(x, *geom))
    cfg = TrainConfig.desk(batch_size=8, max_minibatches=1, seed=3)
    train(graph, store.copy(), branch_dataset(n=8, seed=2, classes=6), cfg)
    convs = [(n.attrs["k"], n.attrs["stride"], n.attrs["pad"])
             for n in graph.nodes if n.kind == "conv"]
    windowed = [geom for geom in convs if geom != (1, 1, 0)]
    assert (len(convs), len(windowed)) == (28, 15)
    assert len(gathers) == 30
    assert sorted(gathers) == sorted(windowed * 2)
