"""Finite-difference gradient suites shared by the unit and acceptance tests.

Each check builds a small random instance, evaluates a scalar projection of
the op's output, and compares the analytic backward against central
differences. Instances are drawn (n, c, h, w) with (out, in, k, k)
weights and handed to ops in the engine's (n, h, w, c) and (k, k, in,
out) layouts. Inputs to kinked ops (relu, maxpool) are nudged away from their
decision boundaries so the finite-difference step cannot cross one.
"""

import numpy as np

from branchnet import ops
from branchnet.engine import forward_pass
from branchnet.graph import GraphSpec, LayerNode
from branchnet.params import ParamStore
from conftest import to_nhwc, to_store_weights
from gradcheck import grad_check


def _away_from_zero(x, margin=0.05):
    return x + margin * np.where(x >= 0, 1.0, -1.0)


def _pool_safe(rng, shape, gap=0.3, jitter=0.02):
    """Random input whose 2x2 windows all have well-separated values."""
    n, c, h, w = shape
    x = jitter * rng.standard_normal(shape)
    offsets = gap * np.arange(4.0)
    for b in range(n):
        for ch in range(c):
            for i in range(0, h, 2):
                for j in range(0, w, 2):
                    x[b, ch, i:i + 2, j:j + 2] += rng.permutation(offsets).reshape(2, 2)
    return x


def check_conv(seed):
    rng = np.random.default_rng(seed)
    stride, padding, k = ((1, 0, 3), (2, 1, 3), (1, 0, 1))[seed % 3]
    x = to_nhwc(rng.standard_normal((2, 3, 6, 6)))
    w = to_store_weights(0.5 * rng.standard_normal((4, 3, k, k)))
    b = rng.standard_normal(4)
    y = ops.conv2d_forward(x, w, b, stride, padding)
    r = rng.standard_normal(y.shape)
    g = ops.conv2d_backward(x, w, b, r, stride, padding)
    return grad_check(
        lambda: float((ops.conv2d_forward(x, w, b, stride, padding) * r).sum()),
        {"x": x, "w": w, "b": b},
        {"x": g.input_grad, "w": g.param_grads["w"], "b": g.param_grads["b"]},
        seed=seed)


def check_batchnorm(seed):
    rng = np.random.default_rng(seed)
    x = to_nhwc(rng.standard_normal((3, 4, 5, 5)))
    gamma = 0.5 + rng.random(4)
    beta = rng.standard_normal(4)
    r = to_nhwc(rng.standard_normal((3, 4, 5, 5)))
    g = ops.batchnorm_backward(x, gamma, beta, r)
    # step 1e-4: the objective sums ~300 O(1) terms, so at 1e-5 float64
    # roundoff in (fp - fm) dominates small-gradient coordinates
    return grad_check(
        lambda: float((ops.batchnorm(x, gamma, beta, mode="train")[0] * r).sum()),
        {"x": x, "gamma": gamma, "beta": beta},
        {"x": g.input_grad, "gamma": g.param_grads["gamma"],
         "beta": g.param_grads["beta"]},
        seed=seed, step=1e-4)


def check_fully_connected(seed):
    rng = np.random.default_rng(seed)
    x = to_nhwc(rng.standard_normal((4, 3, 2, 2)))
    w = rng.standard_normal((12, 5))
    b = rng.standard_normal(5)
    r = rng.standard_normal((4, 5))
    g = ops.fully_connected_backward(x, w, r)
    return grad_check(
        lambda: float((ops.fully_connected(x, w, b) * r).sum()),
        {"x": x, "w": w, "b": b},
        {"x": g.input_grad, "w": g.param_grads["w"], "b": g.param_grads["b"]},
        seed=seed)


def check_relu(seed):
    rng = np.random.default_rng(seed)
    x = _away_from_zero(rng.standard_normal((3, 4, 4, 4)))
    r = rng.standard_normal(x.shape)
    return grad_check(
        lambda: float((ops.relu(x) * r).sum()),
        {"x": x}, {"x": ops.relu_backward(x, r)}, seed=seed)


def check_maxpool(seed):
    rng = np.random.default_rng(seed)
    x = to_nhwc(_pool_safe(rng, (2, 3, 4, 6)))
    r = to_nhwc(rng.standard_normal((2, 3, 2, 3)))
    return grad_check(
        lambda: float((ops.maxpool2x2(x) * r).sum()),
        {"x": x}, {"x": ops.maxpool2x2_backward(x, r)}, seed=seed)


def check_avgpool(seed):
    rng = np.random.default_rng(seed)
    x = to_nhwc(rng.standard_normal((2, 3, 4, 5)))
    r = to_nhwc(rng.standard_normal((2, 3, 1, 1)))
    return grad_check(
        lambda: float((ops.avgpool_global(x) * r).sum()),
        {"x": x}, {"x": ops.avgpool_global_backward(x, r)}, seed=seed)


def check_add(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal((2, 3, 4, 4))
    r = rng.standard_normal(a.shape)
    ga, gb = ops.elementwise_add_backward(r)
    return grad_check(
        lambda: float((ops.elementwise_add(a, b) * r).sum()),
        {"a": a, "b": b}, {"a": ga, "b": gb}, seed=seed)


def check_softmax_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, size=6)
    _, _, grad = ops.softmax_cross_entropy(logits, labels)
    return grad_check(
        lambda: float(ops.softmax_cross_entropy(logits, labels)[0]),
        {"logits": logits}, {"logits": grad}, seed=seed)


def check_sigmoid_multilabel_loss(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((5, 9))
    labels = (rng.random((5, 9)) < 0.3).astype(np.float64)
    _, _, grad = ops.sigmoid_multilabel_loss(logits, labels)
    return grad_check(
        lambda: float(ops.sigmoid_multilabel_loss(logits, labels)[0]),
        {"logits": logits}, {"logits": grad}, seed=seed)


SUITES = {
    "conv2d": check_conv,
    "batchnorm": check_batchnorm,
    "fully_connected": check_fully_connected,
    "relu": check_relu,
    "maxpool2x2": check_maxpool,
    "avgpool_global": check_avgpool,
    "elementwise_add": check_add,
    "softmax_cross_entropy": check_softmax_cross_entropy,
    "sigmoid_multilabel_loss": check_sigmoid_multilabel_loss,
}


def run_all(seeds):
    """Worst relative error per op over the given seeds."""
    return {name: max(check(seed).max_rel_err for seed in seeds)
            for name, check in SUITES.items()}


def residual_graph():
    """A float64 residual block whose skip reads the network input."""
    nodes = (
        LayerNode("conv_a", "conv", {"in": 4, "out": 2, "k": 1, "stride": 1,
                                     "pad": 0, "bias": 0}, ("input",)),
        LayerNode("bn_a", "batchnorm", {"ch": 2}, ("conv_a",)),
        LayerNode("relu_a", "relu", {}, ("bn_a",)),
        LayerNode("conv_b", "conv", {"in": 2, "out": 4, "k": 3, "stride": 1,
                                     "pad": 1, "bias": 0}, ("relu_a",)),
        LayerNode("bn_b", "batchnorm", {"ch": 4}, ("conv_b",)),
        LayerNode("add_z", "add", {}, ("bn_b", "input")),
        LayerNode("relu_z", "relu", {}, ("add_z",)),
    )
    return GraphSpec(nodes, input_shape=(4, 6, 6), branch_points=())


def residual_instance(seed):
    """Random store and input, redrawn until no activation sits near a relu
    kink (the finite-difference step must not cross one)."""
    graph = residual_graph()
    for attempt in range(50):
        rng = np.random.default_rng((seed, attempt))
        store = ParamStore()
        store.arrays = {
            "conv_a/w": to_store_weights(rng.standard_normal((2, 4, 1, 1))),
            "conv_b/w": to_store_weights(0.3 * rng.standard_normal((4, 2, 3, 3))),
            "bn_a/gamma": 0.5 + rng.random(2), "bn_a/beta": rng.standard_normal(2),
            "bn_b/gamma": 0.5 + rng.random(4), "bn_b/beta": rng.standard_normal(4),
        }
        x = rng.standard_normal((2, 4, 6, 6))
        acts, _ = forward_pass(graph, store, x, mode="train")
        margin = min(np.abs(acts["bn_a"]).min(), np.abs(acts["add_z"]).min())
        if margin > 1e-3:
            return graph, store, x, rng
    raise AssertionError("could not find a kink-free residual instance")
