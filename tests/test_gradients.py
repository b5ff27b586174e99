"""Every backward against central finite differences in float64."""

import numpy as np
import pytest

from branchnet import ops
from branchnet.engine import backward_pass, forward_pass
from conftest import to_nhwc
from gradcheck import grad_check
from gradsuites import SUITES, residual_instance

UNIT_SEEDS = range(5)


@pytest.mark.parametrize("seed", UNIT_SEEDS)
@pytest.mark.parametrize("name", sorted(SUITES))
def test_layer_backward(name, seed):
    report = SUITES[name](seed)
    assert report.coords_checked > 0
    assert report.ok(1e-5), (name, report.worst)


@pytest.mark.parametrize("seed", UNIT_SEEDS)
def test_loss_backwards_tighter_tolerance(seed):
    for name in ("softmax_cross_entropy", "sigmoid_multilabel_loss"):
        report = SUITES[name](seed)
        assert report.max_rel_err < 1e-6, (name, report.worst)


@pytest.mark.parametrize("seed", UNIT_SEEDS)
def test_linear_ops_nearly_exact(seed):
    """Linear and piecewise-linear ops admit a large step (no truncation
    term), which pushes the remaining float64 noise far below 1e-9/1e-7."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 3, 2, 2))
    w = rng.standard_normal((12, 5))
    b = rng.standard_normal(5)
    r = rng.standard_normal((4, 5))
    g = ops.fully_connected_backward(x, w, r)
    report = grad_check(
        lambda: float((ops.fully_connected(x, w, b) * r).sum()),
        {"x": x, "w": w, "b": b},
        {"x": g.input_grad, "w": g.param_grads["w"], "b": g.param_grads["b"]},
        step=1e-2, seed=seed)
    assert report.max_rel_err < 1e-9, report.worst

    xr = rng.standard_normal((3, 4, 4, 4))
    xr += 0.05 * np.where(xr >= 0, 1.0, -1.0)
    rr = rng.standard_normal(xr.shape)
    report = grad_check(
        lambda: float((ops.relu(xr) * rr).sum()),
        {"x": xr}, {"x": ops.relu_backward(xr, rr)}, step=1e-2, seed=seed)
    assert report.max_rel_err < 1e-7, report.worst


@pytest.mark.parametrize("seed", UNIT_SEEDS)
def test_residual_block_composite_gradient(seed):
    graph, store, x, rng = residual_instance(seed)
    r = to_nhwc(rng.standard_normal((2, 4, 6, 6)))  # relu_z's layout

    def fn():
        acts, _ = forward_pass(graph, store, x, mode="train")
        return float((acts["relu_z"] * r).sum())

    acts, _ = forward_pass(graph, store, x, mode="train")
    grads, gx = backward_pass(graph, store, acts, {"relu_z": r})
    assert gx.shape == x.shape  # the input gradient is (n, c, h, w)
    wrt = {"x": x}
    analytic = {"x": gx}
    for name, arr in store.arrays.items():
        wrt[name] = arr
        analytic[name] = grads[name]
    report = grad_check(fn, wrt, analytic, seed=seed)
    assert report.ok(1e-5), report.worst


def test_grad_check_requires_float64():
    x = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: 0.0, {"x": x}, {"x": np.zeros(3)})


def test_grad_check_flags_a_wrong_gradient():
    x = np.array([2.0, -1.0])
    wrong = np.array([2.0 * 2.0, 4.0])  # d/dx of sum(x^2) is 2x; second entry lies

    def fn():
        return float((x ** 2).sum())

    report = grad_check(fn, {"x": x}, {"x": wrong})
    assert not report.ok(1e-5)
    assert report.worst.index == 1
