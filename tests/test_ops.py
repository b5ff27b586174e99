import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet import ops
from branchnet.engine import forward_pass
from branchnet.graph import NODE_KINDS, ArchConfig, build_trunk, compute_shapes
from conftest import to_checkpoint_weights, to_nchw, to_nhwc, to_store_weights
from oracles import (avgpool_scan, batchnorm_train_loops,
                     conv2d_backward_batch_gemm, conv2d_backward_per_sample,
                     conv2d_loops, im2col_np_pad, maxpool2x2_backward_scan,
                     maxpool2x2_scan)


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def swap_hw(x):
    """A non-contiguous (n, h, w, c) array with x's values."""
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)


def conv_nchw(x, w, b, stride, padding):
    """ops.conv2d_forward on an (n, c, h, w) input and (out, in, k, k)
    weights, its output viewed (n, c, h, w)."""
    return to_nchw(ops.conv2d_forward(to_nhwc(x), to_store_weights(w), b,
                                      stride, padding))


# convolution


@pytest.mark.parametrize("stride,padding,k", [(1, 0, 3), (2, 1, 3), (1, 1, 3),
                                              (1, 0, 1), (2, 0, 1), (2, 3, 7)])
@pytest.mark.parametrize("with_bias", [False, True])
def test_conv_matches_loop_oracle(stride, padding, k, with_bias):
    rng = np.random.default_rng(hash((stride, padding, k, with_bias)) % 2 ** 31)
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4) if with_bias else None
    got = conv_nchw(x, w, b, stride, padding)
    want = conv2d_loops(x, w, b, stride, padding)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-5


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    y = conv_nchw(x, w, None, 1, 0)
    np.testing.assert_allclose(y, x, rtol=1e-6)


def test_conv_ones_kernel_constant_input():
    x = np.full((1, 6, 6, 2), 0.5)
    w = np.ones((3, 3, 2, 1))
    y = ops.conv2d_forward(x, w, None, 1, 0)
    np.testing.assert_allclose(y, np.full((1, 4, 4, 1), 0.5 * 2 * 9), rtol=1e-6)


def test_conv_bias_adds_per_channel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4, 4, 2))
    w = rng.standard_normal((3, 3, 2, 3))
    b = np.array([1.0, -2.0, 0.5])
    delta = ops.conv2d_forward(x, w, b, 1, 0) - ops.conv2d_forward(x, w, None, 1, 0)
    np.testing.assert_allclose(delta, b * np.ones_like(delta), rtol=0, atol=1e-6)


def test_conv_preserves_float32():
    x = np.ones((1, 4, 4, 1), dtype=np.float32)
    w = np.ones((3, 3, 1, 1), dtype=np.float32)
    assert ops.conv2d_forward(x, w, None, 1, 0).dtype == np.float32


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 20), k=st.integers(1, 7), s=st.integers(1, 3),
       p=st.integers(0, 3))
def test_conv_output_size_rule(h, k, s, p):
    if h + 2 * p < k:
        return
    expected = (h + 2 * p - k) // s + 1
    assert ops.conv_output_size(h, k, s, p) == expected
    x = np.zeros((1, h, h, 1))
    w = np.zeros((k, k, 1, 1))
    assert ops.conv2d_forward(x, w, None, s, p).shape == (1, expected, expected, 1)


def test_conv_rejects_undersized_input():
    x = np.zeros((1, 2, 2, 1))
    w = np.zeros((5, 5, 1, 1))
    with pytest.raises(ValueError):
        ops.conv2d_forward(x, w, None, 1, 0)


def strided_pointwise_conv(x, w, b, gy):
    """A stride-1 1x1 conv on an (n, h, w, c) input done the general im2col
    way: a copy of the strided windows as columns (n*h*w, c), one product
    per sample forward, the column gradient in products of GEMM_ROWS rows,
    and the input gradient added into a zero buffer. Returns (output,
    input grad, weight grad, bias grad)."""
    n, h, wd, c = x.shape
    c_out = w.shape[3]
    sn, sh, sw, sc = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x, shape=(n, h, wd, 1, 1, c), strides=(sn, sh, sw, sh, sw, sc)
    ).copy().reshape(n * h * wd, c)
    w2 = w.reshape(c, c_out)
    y = np.stack([cols[s:s + h * wd] @ w2 for s in range(0, len(cols), h * wd)])
    y = y.reshape(n, h, wd, c_out) + b
    g = gy.reshape(n * h * wd, c_out)
    gw = (cols.T @ g).reshape(w.shape)
    gx = np.zeros_like(x)
    gx += np.concatenate([g[i:i + ops.GEMM_ROWS] @ w2.T
                          for i in range(0, len(g), ops.GEMM_ROWS)]).reshape(x.shape)
    return y, gx, gw, g.sum(axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(32, 32, 7, 7), (2, 5, 3, 4), (1, 64, 14, 14)])
def test_pointwise_conv_is_bitwise_the_strided_im2col_path(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    n, c, h, wd = shape
    x = to_nhwc(rng.standard_normal(shape).astype(dtype))
    w = to_store_weights(rng.standard_normal((9, c, 1, 1)).astype(dtype))
    b = rng.standard_normal(9).astype(dtype)
    gy = to_nhwc(rng.standard_normal((n, 9, h, wd)).astype(dtype))
    gy[:, ::2] = -0.0  # whole spatial rows with no gradient
    y, gx, gw, gb = strided_pointwise_conv(x, w, b, gy)
    assert bitwise_equal(ops.conv2d_forward(x, w, b, 1, 0), y)
    grad = ops.conv2d_backward(x, w, b, gy, 1, 0)
    assert bitwise_equal(grad.input_grad, gx)
    assert bitwise_equal(grad.param_grads["w"], gw)
    assert bitwise_equal(grad.param_grads["b"], gb)
    # a non-contiguous input gives the same bits as its contiguous copy
    xt = swap_hw(x)
    assert bitwise_equal(ops.conv2d_forward(xt, w, b, 1, 0), y)
    grad_t = ops.conv2d_backward(xt, w, b, gy, 1, 0)
    assert bitwise_equal(grad_t.input_grad, gx)
    assert bitwise_equal(grad_t.param_grads["w"], gw)


def test_a_plain_pointwise_conv_gathers_nothing_either_way(monkeypatch):
    # The columns of a 1x1 stride-1 unpadded conv over a contiguous input
    # are that input's own memory in both directions; a strided or padded
    # 1x1 conv, or one over a non-contiguous input, copies its columns.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 6, 6, 8)).astype(np.float32)
    w = rng.standard_normal((1, 1, 8, 3)).astype(np.float32)
    shared = []
    real = ops._im2col

    def gather(a, *geom):
        cols = real(a, *geom)
        shared.append(np.shares_memory(cols, a))
        return cols
    monkeypatch.setattr(ops, "_im2col", gather)
    for xs, stride, pad, copied in ((x, 1, 0, False), (x, 2, 0, True),
                                    (x, 1, 1, True), (swap_hw(x), 1, 0, True)):
        del shared[:]
        y = ops.conv2d_forward(xs, w, None, stride, pad)
        grad = ops.conv2d_backward(xs, w, None, y, stride, pad)
        assert shared == [not copied] * 2, (stride, pad)
        assert grad.input_grad.shape == x.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [1, 2, 3])
@pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (7, 2)])
def test_padded_im2col_is_bitwise_the_np_pad_path(dtype, padding, k, stride):
    rng = np.random.default_rng(padding * 10 + k + stride)
    x = rng.standard_normal((2, 9, 8, 3)).astype(dtype)
    x[0, 0, :3, 0] = (-0.0, np.nan, np.inf)
    oh = ops.conv_output_size(9, k, stride, padding)
    ow = ops.conv_output_size(8, k, stride, padding)
    want = im2col_np_pad(x, k, stride, padding, oh, ow)
    assert bitwise_equal(ops._im2col(x, k, stride, padding, oh, ow), want)
    # a non-contiguous input gives the same bits as its contiguous copy
    xt = swap_hw(x)
    assert not xt.flags.c_contiguous
    assert bitwise_equal(ops._im2col(xt, k, stride, padding, oh, ow), want)


def _conv_geometries():
    """(c_in, c_out, h, w, k, stride, pad) of every desk trunk conv, the
    canonical 7x7/s2/p3 stem over 3 channels, and a 1x1/s2 shortcut over
    an odd extent, whose odd rows and columns get no gradient."""
    graph = build_trunk(ArchConfig.desk())
    shapes = compute_shapes(graph)
    geoms = {(shapes[node.inputs[0]][0], node.attrs["out"])
             + shapes[node.inputs[0]][1:]
             + (node.attrs["k"], node.attrs["stride"], node.attrs["pad"])
             for node in graph.nodes if node.kind == "conv"}
    return sorted(geoms) + [(3, 4, 13, 12, 7, 2, 3), (5, 6, 7, 7, 1, 2, 0)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in gy's sums
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geom", _conv_geometries(),
                         ids=lambda g: "%dto%d-%dx%d-k%ds%dp%d" % g)
def test_conv_backward_is_bitwise_the_nchw_scatter(dtype, geom):
    # The name is historical: the reference now scatters over (n, h, w, c)
    # slices, the layout every activation has.
    c, c_out, h, wd, k, stride, padding = geom
    rng = np.random.default_rng(sum(geom))
    n = 3
    x = rng.standard_normal((n, h, wd, c)).astype(dtype)
    w = rng.standard_normal((k, k, c, c_out)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    oh = ops.conv_output_size(h, k, stride, padding)
    ow = ops.conv_output_size(wd, k, stride, padding)
    gy = rng.standard_normal((n, oh, ow, c_out)).astype(dtype)
    gy[0] = -0.0  # a sample with no gradient at all
    gy[1, 0, :3, 0] = (np.nan, np.inf, -np.inf)[:ow]
    gx, gw, gb = conv2d_backward_batch_gemm(x, w, b, gy, stride, padding,
                                            ops.GEMM_ROWS)
    grad = ops.conv2d_backward(x, w, b, gy, stride, padding)
    assert bitwise_equal(grad.input_grad, gx)
    assert grad.input_grad.flags.c_contiguous
    assert bitwise_equal(grad.param_grads["w"], gw)
    assert bitwise_equal(grad.param_grads["b"], gb)
    skipped = ops.conv2d_backward(x, w, b, gy, stride, padding, input_grad=False)
    assert skipped.input_grad is None
    assert skipped.param_grads.keys() == grad.param_grads.keys()
    for name, pg in grad.param_grads.items():
        assert bitwise_equal(skipped.param_grads[name], pg), name


def test_fc_backward_skips_only_the_input_gradient():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 1, 1, 6)).astype(np.float32)
    w = rng.standard_normal((6, 5)).astype(np.float32)
    gy = rng.standard_normal((4, 5)).astype(np.float32)
    full = ops.fully_connected_backward(x, w, gy)
    skipped = ops.fully_connected_backward(x, w, gy, input_grad=False)
    assert skipped.input_grad is None and full.input_grad.shape == x.shape
    for name, pg in full.param_grads.items():
        assert bitwise_equal(skipped.param_grads[name], pg), name


# pooling


def maxpool_nchw(x):
    return to_nchw(ops.maxpool2x2(to_nhwc(x)))


def maxpool_backward_nchw(x, gy):
    return to_nchw(ops.maxpool2x2_backward(to_nhwc(x), to_nhwc(gy)))


def test_maxpool_matches_scan_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 6, 8))
    np.testing.assert_array_equal(maxpool_nchw(x), maxpool2x2_scan(x))


def test_maxpool_arange():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    np.testing.assert_array_equal(ops.maxpool2x2(x)[0, :, :, 0], [[5, 7], [13, 15]])


def test_maxpool_rejects_odd_extents():
    with pytest.raises(ValueError, match="even"):
        ops.maxpool2x2(np.zeros((1, 5, 4, 1)))


def test_maxpool_backward_matches_scan_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 6, 4))
    gy = rng.standard_normal((2, 3, 3, 2))
    np.testing.assert_array_equal(maxpool_backward_nchw(x, gy),
                                  maxpool2x2_backward_scan(x, gy))


def test_maxpool_backward_tie_routes_to_first_row_major():
    x = np.zeros((1, 2, 2, 1))
    gy = np.ones((1, 1, 1, 1))
    gx = ops.maxpool2x2_backward(x, gy)
    np.testing.assert_array_equal(gx[0, :, :, 0], [[1, 0], [0, 0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_maxpool_dominates_window(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 4, 4, 2))
    y = ops.maxpool2x2(x)
    for i in range(2):
        for j in range(2):
            assert np.all(y[:, i, j][:, None, None]
                          >= x[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2] - 1e-12)


EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_is_bitwise_the_scan_oracle_on_edge_windows(dtype):
    # Every 2x2 window over seven values (7**4 = 49 x 49 windows): ties,
    # +-0, +-inf and NaN in each window position.
    windows = np.array(list(itertools.product(EDGE_VALUES, repeat=4)), dtype=dtype)
    x = windows.reshape(49, 49, 2, 2).transpose(0, 2, 1, 3).reshape(1, 1, 98, 98)
    x = np.concatenate([x, x[:, :, ::-1, ::-1]], axis=1)  # windows reversed
    gy = np.arange(1, x.size // 4 + 1, dtype=dtype).reshape(1, 2, 49, 49)
    assert bitwise_equal(maxpool_nchw(x), maxpool2x2_scan(x))
    assert bitwise_equal(maxpool_backward_nchw(x, gy),
                         maxpool2x2_backward_scan(x, gy))


def test_maxpool_backward_routes_a_nan_window_to_its_first_nan():
    x = np.array([[[[1.0], [np.nan]], [[np.nan], [5.0]]]])
    gx = ops.maxpool2x2_backward(x, np.full((1, 1, 1, 1), 2.0))
    assert bitwise_equal(gx[0, :, :, 0], np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.isnan(ops.maxpool2x2(x)[0, 0, 0, 0])


def test_avgpool_matches_scan_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 5, 3, 7))
    got = ops.avgpool_global(to_nhwc(x))
    assert got.shape == (2, 1, 1, 5)
    assert rel_err(to_nchw(got), avgpool_scan(x)) < 1e-12


def test_avgpool_backward_spreads_uniformly():
    x = np.zeros((1, 2, 2, 1))
    gy = np.full((1, 1, 1, 1), 8.0)
    np.testing.assert_allclose(ops.avgpool_global_backward(x, gy),
                               np.full((1, 2, 2, 1), 2.0))


# batch normalization

NHW = (0, 1, 2)  # the axes batchnorm reduces over


def test_batchnorm_train_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3, 5, 5))
    gamma = rng.standard_normal(3)
    beta = rng.standard_normal(3)
    y, _ = ops.batchnorm(to_nhwc(x), gamma, beta, mode="train")
    assert rel_err(to_nchw(y), batchnorm_train_loops(x, gamma, beta, ops.BN_EPS)) < 1e-6


def test_batchnorm_train_output_statistics():
    rng = np.random.default_rng(6)
    x = 3.0 * rng.standard_normal((8, 6, 6, 2)) + 1.5
    gamma = np.array([2.0, 0.5])
    beta = np.array([-1.0, 3.0])
    y, _ = ops.batchnorm(x, gamma, beta, mode="train")
    np.testing.assert_allclose(y.mean(axis=NHW), beta, atol=1e-6)
    np.testing.assert_allclose(y.std(axis=NHW), np.abs(gamma), rtol=1e-3)


def test_batchnorm_running_stats_seed_then_ema():
    rng = np.random.default_rng(7)
    gamma, beta = np.ones(2), np.zeros(2)
    x1 = rng.standard_normal((4, 3, 3, 2))
    x2 = rng.standard_normal((4, 3, 3, 2)) + 2.0
    _, s1 = ops.batchnorm(x1, gamma, beta, running=None, mode="train")
    assert s1.count == 1
    np.testing.assert_allclose(s1.mean, x1.mean(axis=NHW))
    np.testing.assert_allclose(s1.var, x1.var(axis=NHW))
    _, s2 = ops.batchnorm(x2, gamma, beta, running=s1, mode="train")
    assert s2.count == 2
    np.testing.assert_allclose(s2.mean, 0.9 * s1.mean + 0.1 * x2.mean(axis=NHW))
    np.testing.assert_allclose(s2.var, 0.9 * s1.var + 0.1 * x2.var(axis=NHW))


def test_batchnorm_infer_uses_running_stats():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 3, 2))
    gamma = np.array([1.5, 0.5])
    beta = np.array([0.25, -0.75])
    stats = ops.RunningStats(np.array([0.5, -0.5]), np.array([4.0, 1.0]), 3)
    y, out_stats = ops.batchnorm(x, gamma, beta, running=stats, mode="infer")
    want = gamma * (x - stats.mean) / np.sqrt(stats.var + ops.BN_EPS) + beta
    np.testing.assert_allclose(y, want, rtol=1e-6)
    assert out_stats is stats


def test_batchnorm_infer_requires_initialized_stats():
    with pytest.raises(ValueError, match="uninitialized running statistics"):
        ops.batchnorm(np.zeros((1, 2, 2, 2)), np.ones(2), np.zeros(2),
                      running=None, mode="infer")
    with pytest.raises(ValueError, match="uninitialized running statistics"):
        ops.batchnorm(np.zeros((1, 2, 2, 2)), np.ones(2), np.zeros(2),
                      running=ops.RunningStats(np.zeros(2), np.ones(2), 0),
                      mode="infer")


def batchnorm_infer_case(rng, dtypes, shape=(2, 5, 4, 3)):
    """x and (gamma, beta, RunningStats), each of its own dtype in dtypes
    (x, gamma, beta, mean, var)."""
    c = shape[3]
    x_t, gamma_t, beta_t, mean_t, var_t = dtypes
    stats = ops.RunningStats(rng.standard_normal(c).astype(mean_t),
                             rng.uniform(0.1, 3.0, c).astype(var_t), 2)
    return (rng.standard_normal(shape).astype(x_t),
            rng.standard_normal(c).astype(gamma_t),
            rng.standard_normal(c).astype(beta_t), stats)


F32, F64 = np.float32, np.float64


@pytest.mark.parametrize("dtypes", [(F32,) * 5, (F64,) * 5,
                                    (F32, F32, F32, F64, F64),
                                    (F32, F64, F32, F32, F32),
                                    (F32, F32, F64, F32, F32),
                                    (F32, F32, F32, F32, F64)])
def test_batchnorm_infer_is_bitwise_one_scale_and_shift(dtypes):
    # x * scale + shift over the per-channel fold, in the dtype of all five
    # operands; through the node kind, which donates x only when the result
    # has x's dtype, the bits are the same and nothing is cast into x
    x, gamma, beta, stats = batchnorm_infer_case(np.random.default_rng(4), dtypes)
    scale = gamma / np.sqrt(stats.var + ops.BN_EPS)
    want = x * scale + (beta - stats.mean * scale)
    assert want.dtype == np.result_type(*dtypes)
    got, _ = ops.batchnorm(x, gamma, beta, running=stats, mode="infer")
    assert bitwise_equal(got, want) and not np.shares_memory(got, x)
    donor = x.copy()
    got, _, _ = NODE_KINDS["batchnorm"].forward(
        {"ch": x.shape[3]}, {"gamma": gamma, "beta": beta}, [donor], stats,
        "infer", (True,))
    assert bitwise_equal(got, want)
    assert (got is donor) == (want.dtype == x.dtype)
    assert bitwise_equal(donor, want) if got is donor else bitwise_equal(donor, x)


def test_batchnorm_infer_is_within_float32_rounding_of_float64():
    # float32 operands against gamma * (x - mean) * inv + beta evaluated in
    # float64 over the same values. Folding rounds scale, shift, the product
    # and the sum, each within 2**-24 relatively of its own magnitude; so an
    # element's error is bounded by 4 * eps32 * (|x * scale| + |mean * scale|
    # + |beta|), not by its output: channel 2's mean * scale is over 100
    # times its largest output, and there the shift cancels
    rng = np.random.default_rng(12)
    c = 5
    x = rng.standard_normal((4, 6, 6, c)).astype(np.float32)
    mean = rng.standard_normal(c).astype(np.float32)
    var = rng.uniform(0.1, 3.0, c).astype(np.float32)
    mean[2], var[2] = 1000.0, 1.0
    x[..., 2] += mean[2]
    gamma = rng.standard_normal(c).astype(np.float32)
    beta = rng.standard_normal(c).astype(np.float32)
    got, _ = ops.batchnorm(x, gamma, beta, mode="infer",
                           running=ops.RunningStats(mean, var, 3))
    assert got.dtype == np.float32
    x64, g64, b64, m64, v64 = (a.astype(np.float64) for a in (x, gamma, beta, mean, var))
    scale = g64 / np.sqrt(v64 + ops.BN_EPS)
    want = g64 * (x64 - m64) / np.sqrt(v64 + ops.BN_EPS) + b64
    bound = 4 * np.finfo(np.float32).eps * (
        np.abs(x64 * scale) + np.abs(m64 * scale) + np.abs(b64))
    assert np.all(np.abs(got - want) <= bound)
    assert abs(m64[2] * scale[2]) > 100 * np.abs(want[..., 2]).max()
    # a bound on the output alone would not hold there
    assert np.any(np.abs(got - want)[..., 2] > 4 * np.finfo(np.float32).eps
                  * np.abs(want[..., 2]))


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("count", [0, 1])
def test_batchnorm_rejects_running_statistics_of_another_width(mode, count):
    x = np.ones((1, 2, 2, 3), np.float32)
    gamma, beta = np.ones(3, np.float32), np.zeros(3, np.float32)
    for mean, var in [(np.zeros(1), np.ones(1)), (np.zeros(3), np.ones(1)),
                      (np.zeros(1), np.ones(3)), (np.zeros((3, 1)), np.ones((3, 1)))]:
        running = ops.RunningStats(mean, var, count)
        with pytest.raises(ValueError, match=re.escape(
                f"running mean/var shapes {mean.shape}/{var.shape} do not "
                "match 3 channels")):
            ops.batchnorm(x, gamma, beta, running=running, mode=mode, out=x)
    assert np.all(x == 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_kernels_written_into_their_input_are_the_new_array_bits(dtype):
    rng = np.random.default_rng(6)
    x, gamma, beta, stats = batchnorm_infer_case(rng, (dtype,) * 5)
    b = rng.standard_normal(x.shape).astype(dtype)
    cases = {  # relu's and add's out= also works positionally
        "relu": lambda a, out: ops.relu(a, out),
        "add": lambda a, out: ops.elementwise_add(a, b, out),
        "add into b": lambda a, out: ops.elementwise_add(b, a, out),
        "batchnorm": lambda a, out: ops.batchnorm(
            a, gamma, beta, running=stats, mode="infer", out=out)[0],
    }
    for name, fn in cases.items():
        want = fn(x, None)
        assert want.dtype == dtype and not np.shares_memory(want, x), name
        donor = x.copy()
        got = fn(donor, donor)
        assert got is donor and bitwise_equal(got, want), name


def test_batchnorm_written_into_its_input_keeps_its_checks():
    x = np.ones((1, 2, 2, 2), np.float32)
    for running in (None, ops.RunningStats(np.zeros(2), np.ones(2), 0)):
        with pytest.raises(ValueError, match="uninitialized running statistics"):
            ops.batchnorm(x, np.ones(2, np.float32), np.zeros(2, np.float32),
                          running=running, mode="infer", out=x)
    with pytest.raises(ValueError, match="gamma/beta shapes"):
        ops.batchnorm(x, np.ones(3, np.float32), np.zeros(3, np.float32),
                      running=ops.RunningStats(np.zeros(3), np.ones(3), 1),
                      mode="infer", out=x)
    assert np.all(x == 1)


def test_wider_running_statistics_are_not_cast_into_a_donated_input(
        desk_graph, warm_desk_store):
    # float32 activations over float64 running statistics: each batchnorm's
    # output is float64, so none is written into its dying float32 input
    store = warm_desk_store
    store.running.update({name: ops.RunningStats(s.mean.astype(np.float64),
                                                 s.var.astype(np.float64), s.count)
                          for name, s in store.running.items()})
    x = np.random.default_rng(2).standard_normal((3, 1, 56, 56)).astype(np.float32)
    full, _ = forward_pass(desk_graph, store, x, mode="infer")
    assert full["bn1"].dtype == np.float64 and full["conv1"].dtype == np.float32
    keep = {"bn1", "relu5", "fc"}
    kept, _ = forward_pass(desk_graph, store, x, mode="infer", keep=keep)
    for name in keep:
        assert bitwise_equal(kept[name], full[name]), name


def test_batchnorm_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        ops.batchnorm(np.zeros((1, 2, 2, 1)), np.ones(1), np.zeros(1), mode="test")


def batchnorm_var_reference(x, gamma, beta, gy, eps=ops.BN_EPS):
    """Train-mode batchnorm and its backward on (n, c, h, w) arrays from
    x.mean and np.var, each reducing over the batch on its own, and the
    backward through dxhat and its two batch means. Returns (output, var,
    dx, dgamma, dbeta)."""
    axes = (0, 2, 3)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    std = np.sqrt(var + eps)[None, :, None, None]
    xhat = (x - mean[None, :, None, None]) / std
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dxhat = gy * gamma[None, :, None, None]
    dx = (dxhat
          - dxhat.mean(axis=axes, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True)) / std
    return y, var, dx, (gy * xhat).sum(axis=axes), gy.sum(axis=axes)


def batchnorm_closed_form_reference(x, gamma, beta, gy, eps=ops.BN_EPS):
    """Train-mode batchnorm and its backward on (n, h, w, c) arrays with
    every per-channel sum an einsum over the (n*h*w, c) view:
    y = (x - mean) * (gamma/std) + beta, and
    dx = gamma/std * ((gy - xhat * dgamma/m) - dbeta/m) with
    xhat * dgamma/m taken as (x - mean) * (dgamma / (m*std)). Returns
    (output, var, dx, dgamma, dbeta)."""
    c = x.shape[3]
    m = x.size // c
    x2 = x.reshape(m, c)
    g2 = gy.reshape(m, c)
    mean = np.einsum("mc->c", x2) / m
    d = x2 - mean
    var = np.einsum("mc,mc->c", d, d) / m
    std = np.sqrt(var + eps)
    y = d * (gamma / std) + beta
    dbeta = np.einsum("mc->c", g2)
    dgamma = np.einsum("mc,mc->c", g2, d) / std
    dx = ((g2 - d * (dgamma / (m * std))) - dbeta / m) * (gamma / std)
    return y.reshape(x.shape), var, dx.reshape(x.shape), dgamma, dbeta


BATCHNORM_SHAPES = [(32, 8, 28, 28), (32, 64, 4, 4), (32, 80, 1, 1),
                    (1, 32, 112, 112), (1, 256, 14, 14), (3, 5, 7, 2)]


def batchnorm_case(dtype, shape):
    """Seeded (x, gamma, beta, gy) of the (n, c, h, w) shape, laid out
    (n, h, w, c), with per-channel scales and offsets."""
    rng = np.random.default_rng(sum(shape))
    c = shape[1]
    x = (rng.uniform(0.1, 5.0, c)[None, :, None, None] * rng.standard_normal(shape)
         + rng.uniform(-3.0, 3.0, c)[None, :, None, None]).astype(dtype)
    gamma = rng.standard_normal(c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    gy = rng.standard_normal(shape).astype(dtype)
    return to_nhwc(x), gamma, beta, to_nhwc(gy)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", BATCHNORM_SHAPES)
def test_batchnorm_train_is_bitwise_the_closed_form(dtype, shape):
    """Pins the bits of batchnorm_closed_form_reference: np.var's two-pass
    formulation (the mean, then the mean squared deviation from it) with
    each sum an einsum contraction, so the variance is np.var's to within
    rounding but not its bits; and the closed-form backward in the order
    that reference evaluates it."""
    x, gamma, beta, gy = batchnorm_case(dtype, shape)
    y, var, dx, dgamma, dbeta = batchnorm_closed_form_reference(x, gamma, beta, gy)
    out, stats, saved = ops.batchnorm_train(x, gamma, beta)
    assert bitwise_equal(out, y)
    assert bitwise_equal(stats.var, var)
    np.testing.assert_allclose(stats.var, np.var(x, axis=NHW),
                               rtol=1e-5 if dtype == np.float32 else 1e-12)
    assert bitwise_equal(ops.batchnorm(x, gamma, beta, mode="train")[0], y)
    assert saved.mean.shape == saved.std.shape == (x.shape[3],)
    for context in (saved, None):
        grad = ops.batchnorm_backward(x, gamma, beta, gy, saved=context)
        assert bitwise_equal(grad.input_grad, dx)
        assert bitwise_equal(grad.param_grads["gamma"], dgamma)
        assert bitwise_equal(grad.param_grads["beta"], dbeta)
    # a non-contiguous input gives the same bits as its contiguous copy
    xt = swap_hw(x)
    out_t, _, saved_t = ops.batchnorm_train(xt, gamma, beta)
    assert bitwise_equal(out_t, y)
    assert bitwise_equal(ops.batchnorm_backward(xt, gamma, beta, gy,
                                                saved=saved_t).input_grad, dx)


def normwise_rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_training_kernels_move_only_rounding_from_the_old_formulas():
    # In float64 the one-GEMM channels-last conv backward and the
    # closed-form batchnorm agree with the per-sample NCHW GEMMs and the
    # np.var / dxhat-means formulation to 1e-12 of each result's largest
    # magnitude.
    worst = 0.0
    for geom in _conv_geometries():
        c, c_out, h, wd, k, stride, padding = geom
        rng = np.random.default_rng(sum(geom))
        x = rng.standard_normal((3, c, h, wd))
        w = rng.standard_normal((c_out, c, k, k))
        b = rng.standard_normal(c_out)
        oh = ops.conv_output_size(h, k, stride, padding)
        ow = ops.conv_output_size(wd, k, stride, padding)
        gy = rng.standard_normal((3, c_out, oh, ow))
        grad = ops.conv2d_backward(to_nhwc(x), to_store_weights(w), b,
                                   to_nhwc(gy), stride, padding)
        for got, want in zip((to_nchw(grad.input_grad),
                              to_checkpoint_weights(grad.param_grads["w"]),
                              grad.param_grads["b"]),
                             conv2d_backward_per_sample(x, w, b, gy, stride, padding)):
            worst = max(worst, normwise_rel_err(got, want))
    for shape in BATCHNORM_SHAPES:
        x, gamma, beta, gy = batchnorm_case(np.float64, shape)
        y, var, dx, dgamma, dbeta = batchnorm_var_reference(
            to_nchw(x), gamma, beta, to_nchw(gy))
        out, stats, saved = ops.batchnorm_train(x, gamma, beta)
        grad = ops.batchnorm_backward(x, gamma, beta, gy, saved=saved)
        for got, want in ((to_nchw(out), y), (stats.var, var),
                          (to_nchw(grad.input_grad), dx),
                          (grad.param_grads["gamma"], dgamma),
                          (grad.param_grads["beta"], dbeta)):
            worst = max(worst, normwise_rel_err(got, want))
    assert worst < 1e-12


# relu and add


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_relu_idempotent_and_nonnegative(seed):
    x = np.random.default_rng(seed).standard_normal((2, 3, 4))
    y = ops.relu(x)
    assert np.all(y >= 0)
    np.testing.assert_array_equal(ops.relu(y), y)
    np.testing.assert_array_equal(y[x > 0], x[x > 0])
    assert np.all(y[x <= 0] == 0)


def test_relu_backward_zero_at_kink():
    x = np.array([[-1.0, 0.0, 2.0]])
    gy = np.ones_like(x)
    np.testing.assert_array_equal(ops.relu_backward(x, gy), [[0.0, 0.0, 1.0]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_add_identity_and_commutativity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal((3, 2, 2))
    np.testing.assert_array_equal(ops.elementwise_add(a, np.zeros_like(a)), a)
    np.testing.assert_array_equal(ops.elementwise_add(a, b),
                                  ops.elementwise_add(b, a))


def test_add_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ops.elementwise_add(np.zeros((1, 2)), np.zeros((2, 1)))


# fully connected


def test_fully_connected_flattens_row_major():
    # in (c, h, w) order, whatever the layout of its (n, h, w, c) input
    x = np.arange(12, dtype=np.float64).reshape(1, 3, 2, 2)
    w = np.eye(12)
    b = np.zeros(12)
    np.testing.assert_array_equal(ops.fully_connected(to_nhwc(x), w, b)[0],
                                  np.arange(12))
    gx = ops.fully_connected_backward(to_nhwc(x), w, w[None, 5]).input_grad
    assert bitwise_equal(to_nchw(gx), (x == 5).astype(x.dtype))


def test_fully_connected_matches_matmul():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    np.testing.assert_allclose(ops.fully_connected(x, w, b), x @ w + b, rtol=1e-12)


def test_fully_connected_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        ops.fully_connected(np.zeros((2, 5)), np.zeros((4, 3)), np.zeros(3))


# softmax head and loss


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(1.0, 1e4))
def test_softmax_rows_sum_to_one(seed, scale):
    logits = scale * np.random.default_rng(seed).standard_normal((5, 7))
    probs = ops.softmax(logits)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((3, 4))
    np.testing.assert_allclose(ops.softmax(logits), ops.softmax(logits + 123.0),
                               atol=1e-12)


def test_cross_entropy_uniform_logits_seven_classes():
    loss, probs, _ = ops.softmax_cross_entropy(np.zeros((3, 7)), np.array([0, 3, 6]))
    assert abs(loss - math.log(7.0)) < 1e-9
    assert abs(loss - 1.945910) < 1e-6
    np.testing.assert_allclose(probs, 1.0 / 7.0)


def test_cross_entropy_saturated_correct_class():
    logits = np.array([[50.0, 0.0, 0.0]])
    loss, _, _ = ops.softmax_cross_entropy(logits, np.array([0]))
    assert loss < 1e-9


def test_cross_entropy_grad_formula():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((5, 4))
    labels = np.array([0, 1, 2, 3, 1])
    loss, probs, grad = ops.softmax_cross_entropy(logits, labels)
    onehot = np.eye(4)[labels]
    np.testing.assert_allclose(grad, (probs - onehot) / 5, atol=1e-12)
    assert loss > 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [2, 37, 10_000])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_cross_entropy_probabilities_are_softmax_bit_for_bit(dtype, m, scale):
    logits = (scale * np.random.default_rng(m).standard_normal((5, m))
              ).astype(dtype)
    labels = np.arange(5) % m
    loss, probs, _ = ops.softmax_cross_entropy(logits, labels)
    assert probs.dtype == dtype
    assert probs.tobytes() == ops.softmax(logits).tobytes()
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    assert loss == float((lse - z[np.arange(5), labels]).mean())


def test_cross_entropy_one_hot_matches_indices():
    rng = np.random.default_rng(12)
    logits = rng.standard_normal((4, 3))
    idx = np.array([2, 0, 1, 1])
    onehot = np.eye(3)[idx]
    a = ops.softmax_cross_entropy(logits, idx)
    b = ops.softmax_cross_entropy(logits, onehot)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[2], b[2])


def test_cross_entropy_label_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError, match="out of range"):
        ops.softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValueError, match="integer"):
        ops.softmax_cross_entropy(logits, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="one-hot"):
        ops.softmax_cross_entropy(logits, np.array([[1, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="at least 2"):
        ops.softmax_cross_entropy(np.zeros((2, 1)), np.array([0, 0]))


def test_cross_entropy_mean_over_duplicated_batch():
    rng = np.random.default_rng(13)
    logits = rng.standard_normal((1, 5))
    labels = np.array([2])
    single = ops.softmax_cross_entropy(logits, labels)[0]
    triple = ops.softmax_cross_entropy(np.repeat(logits, 3, axis=0),
                                       np.repeat(labels, 3))[0]
    assert abs(single - triple) < 1e-12


# sigmoid head and loss


def test_sigmoid_midpoint_and_saturation():
    y = ops.sigmoid(np.array([0.0, 1e4, -1e4]))
    assert y[0] == 0.5
    assert abs(y[1] - 1.0) < 1e-12
    assert abs(y[2]) < 1e-12
    assert np.all(np.isfinite(y))


def test_sigmoid_loss_zero_logits_is_ln2():
    loss, scores, _ = ops.sigmoid_multilabel_loss(np.zeros((2, 4)),
                                                  np.zeros((2, 4)))
    assert abs(loss - math.log(2.0)) < 1e-12
    np.testing.assert_allclose(scores, 0.5)


def test_sigmoid_loss_saturated_correct():
    logits = np.array([[40.0, -40.0]])
    labels = np.array([[1.0, 0.0]])
    loss, _, _ = ops.sigmoid_multilabel_loss(logits, labels)
    assert loss < 1e-12


def test_sigmoid_loss_grad_formula():
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((3, 5))
    labels = (rng.random((3, 5)) < 0.5).astype(np.float64)
    _, scores, grad = ops.sigmoid_multilabel_loss(logits, labels)
    np.testing.assert_allclose(grad, (scores - labels) / 15, atol=1e-12)


def test_sigmoid_loss_mean_over_duplicated_batch():
    rng = np.random.default_rng(15)
    logits = rng.standard_normal((1, 4))
    labels = np.array([[1.0, 0.0, 1.0, 1.0]])
    single = ops.sigmoid_multilabel_loss(logits, labels)[0]
    double = ops.sigmoid_multilabel_loss(np.repeat(logits, 2, axis=0),
                                         np.repeat(labels, 2, axis=0))[0]
    assert abs(single - double) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_sigmoid_loss_scores_are_sigmoid_bit_for_bit(dtype, scale):
    rng = np.random.default_rng(16)
    logits = (scale * rng.standard_normal((5, 9))).astype(dtype)
    labels = (rng.random((5, 9)) < 0.5).astype(dtype)
    loss, scores, _ = ops.sigmoid_multilabel_loss(logits, labels)
    assert scores.dtype == dtype
    assert scores.tobytes() == ops.sigmoid(logits).tobytes()
    per = (np.maximum(logits, 0) - logits * labels
           + np.log1p(np.exp(-np.abs(logits))))
    assert loss == float(per.mean())


def test_sigmoid_loss_rejects_nonbinary_targets():
    with pytest.raises(ValueError, match="0/1"):
        ops.sigmoid_multilabel_loss(np.zeros((1, 2)), np.array([[0.5, 1.0]]))
