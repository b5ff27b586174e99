"""forward_pass(keep=...), boundary and the chunked infer: the same bits as a
full forward, and fewer activations alive at once."""

import tracemalloc

import numpy as np
import pytest

from branchnet.engine import boundary, forward_pass, infer
from branchnet.graph import BRANCH_POINT_NAMES
from branchnet.params import ParamStore
from conftest import desk_inputs
from gradsuites import residual_instance


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
    assert acts.keys() == {"input"} and acts["input"] is x


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
    x = desk_inputs(np.random.default_rng(3), 37)
    keep = {"input", "conv19", "fc"}
    got = infer(graph, store, x, keep, 16)
    assert got.keys() == keep
    for name in keep:
        chunks = [forward_pass(graph, store, x[lo:lo + 16], mode="infer")[0][name]
                  for lo in range(0, len(x), 16)]
        assert same_bits(got[name], np.concatenate(chunks)), name


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
