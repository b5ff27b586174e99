"""forward_pass(keep=...), boundary and the chunked infer: the same bits as a
full forward, and fewer activations alive at once."""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet import multihead
from branchnet.engine import CHUNK, boundary, forward_pass, infer
from branchnet.graph import (BRANCH_POINT_NAMES, NODE_KINDS, ArchConfig,
                             GraphSpec, LayerNode, build_trunk)
from branchnet.multihead import (HeadSpec, MultiHeadModel, predict_all,
                                 run_head_standalone)
from branchnet.params import ParamStore, param_shapes
from branchnet.train import (Dataset, TrainConfig, evaluate_accuracy,
                             init_params, make_branch, train)
from conftest import desk_inputs, to_checkpoint_weights, to_nchw, to_nhwc
from gradsuites import residual_instance
from oracles import forward_loops


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(acts, reference):
    for name, a in acts.items():
        assert same_bits(a, reference[name]), name


@pytest.fixture(scope="module")
def desk_batch():
    return desk_inputs(np.random.default_rng(5), 32)


@pytest.mark.parametrize("layer", BRANCH_POINT_NAMES)
def test_keeping_a_boundary_is_bitwise_the_full_forward_on_the_desk_trunk(
        desk_graph, warm_desk_store, desk_batch, layer):
    graph, store = desk_graph, warm_desk_store
    full, _ = forward_pass(graph, store, desk_batch, mode="infer")
    index = graph.index(layer)
    keep = boundary(graph, index)
    assert keep and all(graph.index(n) < index for n in keep)
    prefix, _ = forward_pass(graph, store, desk_batch, mode="infer", keep=keep)
    assert prefix.keys() == keep
    assert_same(prefix, full)
    rest, _ = forward_pass(graph, store, None, mode="infer", start=index,
                           cache=prefix, keep={"fc", "softmax"})
    assert rest.keys() == {"fc", "softmax"}
    assert_same(rest, full)


def every_kind_graph():
    """Every node kind over a 2x6x6 input: padded, strided and plain 1x1
    convs, residual adds, both pools (the global one padded back to 2x2 by
    a 2x2 conv), and an fc over a 2x2 extent."""
    def conv(name, src, cin, k, stride, pad, bias=0):
        return LayerNode(name, "conv", {"in": cin, "out": 4, "k": k,
                                        "stride": stride, "pad": pad,
                                        "bias": bias}, (src,))
    nodes = (conv("c1", "input", 2, 3, 1, 1, bias=1),
             LayerNode("b1", "batchnorm", {"ch": 4}, ("c1",)),
             LayerNode("r1", "relu", {}, ("b1",)),
             LayerNode("p1", "maxpool", {}, ("r1",)),
             conv("c2", "p1", 4, 3, 2, 1),
             conv("c3", "c2", 4, 1, 1, 0, bias=1),
             conv("sc", "p1", 4, 1, 2, 0),
             LayerNode("a1", "add", {}, ("c3", "sc")),
             LayerNode("r2", "relu", {}, ("a1",)),
             LayerNode("gap", "avgpool", {"global": 1}, ("r2",)),
             conv("up", "gap", 4, 2, 1, 1),
             LayerNode("a2", "add", {}, ("r2", "up")),
             LayerNode("fc", "fc", {"in": 16, "out": 3}, ("a2",)),
             LayerNode("softmax", "softmax-head", {}, ("fc",)))
    return GraphSpec(nodes, input_shape=(2, 6, 6), branch_points=())


def test_forward_pass_on_nchw_input_matches_the_nchw_loop_oracle():
    graph = every_kind_graph()
    rng = np.random.default_rng(17)
    store = ParamStore({name: rng.standard_normal(shape)
                        for name, shape in param_shapes(graph).items()})
    x = rng.standard_normal((3, 2, 6, 6))
    acts, _ = forward_pass(graph, store, x, mode="train")
    want = forward_loops(graph, {name: to_checkpoint_weights(a) if a.ndim == 4
                                 else a for name, a in store.arrays.items()}, x)
    assert want.keys() == acts.keys() - {"softmax"}
    for name, a in want.items():
        got = to_nchw(acts[name]) if acts[name].ndim == 4 else acts[name]
        denom = np.maximum(np.maximum(np.abs(got), np.abs(a)), 1e-8)
        assert got.shape == a.shape and np.max(np.abs(got - a) / denom) < 1e-5, name
    assert acts["fc"].shape == (3, 3)


@pytest.mark.parametrize("seed", range(3))
def test_keeping_a_boundary_is_bitwise_the_full_forward_in_float64(seed):
    graph, store, x, _ = residual_instance(seed)
    full, full_updates = forward_pass(graph, store, x, mode="train")
    for index in range(1, len(graph.nodes)):
        keep = boundary(graph, index)
        prefix, _ = forward_pass(graph, store, x, mode="train", keep=keep)
        assert prefix.keys() == keep
        assert_same(prefix, full)
        rest, updates = forward_pass(graph, store, None, mode="train",
                                     start=index, cache=prefix,
                                     keep={"relu_z"})
        assert rest["relu_z"].dtype == np.float64
        assert_same(rest, full)
        for name, stats in updates.items():
            assert same_bits(stats.mean, full_updates[name].mean)
            assert same_bits(stats.var, full_updates[name].var)
    assert "input" in boundary(graph, graph.index("add_z"))


def test_keep_runs_no_node_after_the_last_kept_one(desk_graph,
                                                   warm_desk_store):
    graph, desk_store = desk_graph, warm_desk_store
    x = desk_inputs(np.random.default_rng(2), 2)
    prefix_only = ParamStore(
        {k: v for k, v in desk_store.arrays.items() if k.startswith(("conv1/", "bn1/"))},
        running={"bn1": desk_store.running["bn1"]})
    acts, _ = forward_pass(graph, prefix_only, x, mode="infer", keep={"pool1"})
    full, _ = forward_pass(graph, desk_store, x, mode="infer")
    assert acts.keys() == {"pool1"}
    assert_same(acts, full)
    acts, _ = forward_pass(graph, desk_store, x, mode="infer", keep={"input"})
    assert acts.keys() == {"input"}
    assert same_bits(acts["input"], to_nhwc(x))  # converted once, at node 0


def test_a_cached_input_at_node_zero_is_the_same_pass(desk_graph,
                                                     warm_desk_store,
                                                     desk_batch):
    graph, store = desk_graph, warm_desk_store
    full, updates = forward_pass(graph, store, desk_batch, mode="train")
    cached, cached_updates = forward_pass(graph, store, None, mode="train",
                                          cache={"input": desk_batch})
    assert cached.keys() == full.keys()
    assert_same(cached, full)
    for name, stats in cached_updates.items():
        assert same_bits(stats.mean, updates[name].mean)
        assert same_bits(stats.var, updates[name].var)


def test_infer_is_the_per_chunk_forwards_concatenated(desk_graph,
                                                       warm_desk_store):
    graph, store = desk_graph, warm_desk_store
    x = desk_inputs(np.random.default_rng(3), 37)  # the last chunk is partial
    keep = {"input", "conv19", "fc"}
    got = infer(graph, store, {"input": x}, keep)
    assert got.keys() == keep
    for name in keep:
        chunks = [forward_pass(graph, store, x[lo:lo + CHUNK],
                               mode="infer")[0][name]
                  for lo in range(0, len(x), CHUNK)]
        assert same_bits(got[name], np.concatenate(chunks)), name


@pytest.mark.parametrize("n", [CHUNK + 1, 2 * CHUNK + 1])
def test_infer_is_one_whole_batch_forward_when_one_sample_trails(
        desk_graph, warm_desk_store, n):
    # A 1-row chunk would take numpy's matrix-vector path at fc, whose bits
    # differ from the same row's in a larger product; it joins the chunk
    # before it instead.
    graph, store = desk_graph, warm_desk_store
    x = desk_inputs(np.random.default_rng(9), n)
    keep = {"fc", graph.nodes[-1].name}
    got = infer(graph, store, {"input": x}, keep)
    full, _ = forward_pass(graph, store, x, mode="infer")
    assert got.keys() == keep
    assert_same(got, full)


@pytest.mark.parametrize("n", [CHUNK + 2, 2 * CHUNK + 2])
def test_infer_gives_each_sample_its_whole_batch_bits(desk_graph,
                                                       warm_desk_store, n):
    # A conv forward takes each sample's rows in products of their own;
    # one product over the batch would let BLAS pick another kernel for a
    # 2-sample chunk than for the whole batch, and move its bits.
    graph, store = desk_graph, warm_desk_store
    x = desk_inputs(np.random.default_rng(10), n)
    keep = {"conv1", "conv3", "relu15", "fc"}
    got = infer(graph, store, {"input": x}, keep)
    full, _ = forward_pass(graph, store, x, mode="infer")
    assert_same(got, full)


@pytest.mark.parametrize("n", [CHUNK + 2, CHUNK + 3])
def test_infer_gives_a_seven_class_head_its_whole_batch_bits(desk_graph,
                                                             warm_desk_store, n):
    # A 7-class fc (80->7) takes other bits in a 2- or 3-row pass than for
    # the same rows inside a 32-row chunk, yet infer's trailing 2- or 3-row
    # chunk must give the bits of the one whole-batch forward.
    branch = make_branch(desk_graph, warm_desk_store, "conv19", 7, warm=True,
                         seed=3)
    x = desk_inputs(np.random.default_rng(12), n)
    got = infer(branch.graph, branch.store, {"input": x}, {"fc"})
    full, _ = forward_pass(branch.graph, branch.store, x, mode="infer")
    assert_same(got, full)


@pytest.mark.parametrize("layer", ["conv17", "conv22", "fc"])
def test_infer_resumed_from_a_boundary_is_the_full_pass(desk_graph,
                                                        warm_desk_store, layer):
    # conv17 also reads a residual skip from before its predecessor
    graph, store = desk_graph, warm_desk_store
    x = desk_inputs(np.random.default_rng(4), 37)
    index = graph.index(layer)
    full = infer(graph, store, {"input": x}, boundary(graph, index) | {"fc"})
    sources = {name: full.pop(name) for name in boundary(graph, index)}
    got = infer(graph, store, sources, {"fc"}, start=index)
    assert got.keys() == {"fc"} and same_bits(got["fc"], full["fc"])


def test_infer_holds_its_result_once(desk_graph, warm_desk_store):
    # Each kept output is allocated once and filled chunk by chunk, so the
    # pass peaks at its result plus one chunk's own working set (about 6
    # MiB on the desk trunk); gathering chunks and joining them would peak
    # at twice the result. 1000 samples, the branch grid's union of
    # boundaries: a 16.4 MiB result, large enough to outweigh one chunk.
    graph, store = desk_graph, warm_desk_store
    keep = set().union(*(boundary(graph, graph.index(layer))
                         for layer in BRANCH_POINT_NAMES)) - {"input"}
    sources = {"input": desk_inputs(np.random.default_rng(6), 1000)}
    infer(graph, store, sources, keep)  # warm
    tracemalloc.start()
    try:
        got = infer(graph, store, sources, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in got.values())
    assert peak < 1.5 * size, (peak, size)


def _traced_peak(fn):
    fn()  # warm: first-call allocations are not the pass's own
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_keeping_only_the_logits_halves_the_traced_peak(desk_graph,
                                                        warm_desk_store,
                                                        desk_batch):
    graph, store = desk_graph, warm_desk_store
    full = _traced_peak(lambda: forward_pass(graph, store, desk_batch,
                                             mode="infer"))
    live = _traced_peak(lambda: forward_pass(graph, store, desk_batch,
                                             mode="infer", keep={"fc"}))
    assert live < full / 2, (live, full)


# buffer reuse: under keep, relu, add and inference batchnorm write into an
# input that dies at them; no caller array is ever written


def warm_store(graph, seed):
    store = init_params(graph, TrainConfig.desk(seed=seed))
    x = np.random.default_rng(seed).standard_normal(
        (4,) + graph.input_shape).astype(np.float32)
    store.running.update(forward_pass(graph, store, x, mode="train")[1])
    return store


@functools.cache
def donation_case(channels):
    """(graph, warm store, 3 inputs, keep=None inference pass) of the desk
    trunk over a `channels`-channel input, built once."""
    graph = build_trunk(ArchConfig.desk(in_channels=channels))
    store = warm_store(graph, 40 + channels)
    x = np.random.default_rng(channels).standard_normal(
        (3,) + graph.input_shape).astype(np.float32)
    return graph, store, x, forward_pass(graph, store, x, mode="infer")[0]


DESK_NAMES = [node.name for node in build_trunk(ArchConfig.desk()).nodes]


@settings(max_examples=30, deadline=None)
@given(channels=st.sampled_from([1, 3]),
       keep=st.sets(st.sampled_from(DESK_NAMES + ["input"]), min_size=1,
                    max_size=5),
       start=st.sampled_from(BRANCH_POINT_NAMES))
def test_passes_that_reuse_buffers_give_the_keep_none_bits(channels, keep, start):
    graph, store, x, full = donation_case(channels)
    acts, _ = forward_pass(graph, store, x, mode="infer", keep=keep)
    assert acts.keys() == keep
    assert_same(acts, full)
    assert_same(infer(graph, store, {"input": x}, keep), full)
    # resumed at a branch point over its boundary, keeping what lies after
    index = graph.index(start)
    after = {n for n in keep if n != "input" and graph.index(n) >= index} or {"fc"}
    sources = {name: full[name] for name in boundary(graph, index)}
    assert_same(infer(graph, store, sources, after, start=index), full)


def test_an_input_is_free_only_if_the_pass_made_it_and_drops_it_here(
        desk_graph, warm_desk_store, desk_batch, monkeypatch):
    frees = {}
    for name, kind in dict(NODE_KINDS).items():
        def spy(a, p, ins, running, mode, free, forward=kind.forward):
            frees[names[id(a)]] = free
            return forward(a, p, ins, running, mode, free)
        monkeypatch.setitem(NODE_KINDS, name, replace(kind, forward=spy))
    names = {id(node.attrs): node.name for node in desk_graph.nodes}

    forward_pass(desk_graph, warm_desk_store, desk_batch, mode="infer")
    assert set(frees.values()) == {(False,), (False, False)}  # keep=None
    frees.clear()
    forward_pass(desk_graph, warm_desk_store, desk_batch, mode="infer",
                 keep={"bn1", "fc"})
    assert frees["conv1"] == (False,)  # the network input is the caller's
    assert frees["bn1"] == (True,) and frees["relu1"] == (False,)  # bn1 kept
    assert frees["add1"] == frees["add9"] == (True, True)
    assert frees["fc"] == (True,) and "softmax" not in frees
    # resumed at conv19: relu17, which add9 reads, is a cached source
    index = desk_graph.index("conv19")
    sources = infer(desk_graph, warm_desk_store, {"input": desk_batch},
                    boundary(desk_graph, index))
    assert "relu17" in sources
    infer(desk_graph, warm_desk_store, sources, {"fc"}, start=index)
    assert frees["add9"] == (True, False) and frees["conv19"] == (False,)


def test_an_activation_read_twice_is_not_written_into(monkeypatch):
    # r = relu(bn(conv(x))) dies at add(r, r): the add must not be told it
    # may write into r, and gives the out-of-place bits
    nodes = (LayerNode("c", "conv", {"in": 2, "out": 3, "k": 3, "stride": 1,
                                     "pad": 1}, ("input",)),
             LayerNode("bn", "batchnorm", {"ch": 3}, ("c",)),
             LayerNode("r", "relu", {}, ("bn",)),
             LayerNode("twice", "add", {}, ("r", "r")),
             LayerNode("fc", "fc", {"in": 48, "out": 2}, ("twice",)),
             LayerNode("softmax", "softmax-head", {}, ("fc",)))
    graph = GraphSpec(nodes, input_shape=(2, 4, 4), branch_points=())
    store = warm_store(graph, 3)
    x = np.random.default_rng(1).standard_normal((3, 2, 4, 4)).astype(np.float32)
    full, _ = forward_pass(graph, store, x, mode="infer")
    frees = []
    add = NODE_KINDS["add"]
    monkeypatch.setitem(NODE_KINDS, "add", replace(
        add, forward=lambda *args: frees.append(args[-1]) or add.forward(*args)))
    acts, _ = forward_pass(graph, store, x, mode="infer", keep={"twice", "fc"})
    assert frees == [(False, False)]
    assert_same(acts, full)
    assert same_bits(acts["twice"], full["r"] + full["r"])


def snapshot(arrays):
    return {name: a.copy() for name, a in arrays.items()}


def assert_untouched(arrays, before):
    assert arrays.keys() == before.keys()
    for name, a in arrays.items():
        assert same_bits(a, before[name]), name


def test_no_pass_writes_into_an_array_its_caller_holds(desk_graph,
                                                       warm_desk_store):
    graph, store = desk_graph, warm_desk_store
    x = desk_inputs(np.random.default_rng(8), 5)
    x_before = x.copy()
    # on a 1-channel input the engine-layout "input" is a view of x itself
    acts, _ = forward_pass(graph, store, x, mode="infer", keep={"input", "fc"})
    assert np.shares_memory(acts["input"], x)
    # resumed at relu1 or add9, a relu and an add read only cached sources
    for index in map(graph.index, ("conv1", "relu1", "conv17", "add9", "fc")):
        keep = boundary(graph, index) | {"fc"}
        sources = {"input": x} if index == 0 else infer(
            graph, store, {"input": x}, boundary(graph, index))
        before = snapshot(sources)
        infer(graph, store, sources, {"fc"}, start=index)
        forward_pass(graph, store, None, mode="infer", start=index,
                     cache=sources, keep=keep)
        assert_untouched(sources, before)
    assert same_bits(x, x_before)

    # a dataset's cached prefix, through train and evaluate_accuracy
    branch = make_branch(graph, store, "conv19", 4, warm=True, seed=2)
    acts = infer(graph, store, {"input": x}, boundary(graph, branch.branch_index))
    data = Dataset(x, np.arange(5) % 4, acts)
    before = snapshot(data.activations)
    train(branch.graph, branch.store, data,
          TrainConfig.desk(batch_size=4, max_minibatches=2))
    evaluate_accuracy(branch.graph, branch.store, data)
    assert_untouched(data.activations, before)
    assert same_bits(x, x_before)


def test_predict_all_writes_into_neither_the_request_nor_a_boundary(
        desk_graph, warm_desk_store, monkeypatch):
    graph, store = desk_graph, warm_desk_store
    model = MultiHeadModel(graph, store)
    for i, (task, layer, k) in enumerate((("nuisance", "conv19", 7),
                                          ("stage", "conv22", 14),
                                          ("binary", "fc", 2))):
        br = make_branch(graph, store, layer, k, warm=True, seed=i)
        model.add_head(HeadSpec(task, layer, k, "softmax"), br.graph, br.store)
    calls = []
    real = multihead.infer

    def spied(g, s, sources, keep, start=0):
        before = snapshot(sources)
        out = real(g, s, sources, keep, start)
        calls.append((sources, before))
        return out
    monkeypatch.setattr(multihead, "infer", spied)
    x = desk_inputs(np.random.default_rng(9), 3)
    x_before = x.copy()
    pred = predict_all(model, x)
    assert len(calls) == 1 + len(model.heads)
    for sources, before in calls:  # the request, then each head's boundary
        assert_untouched(sources, before)
    assert same_bits(x, x_before)
    for h in model.heads:
        assert same_bits(pred.tasks[h.spec.task].scores, run_head_standalone(h, x))
