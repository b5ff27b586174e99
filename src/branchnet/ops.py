"""Layer primitives: pure forward and backward functions on NCHW arrays.

Every operation takes explicit inputs and returns new arrays; nothing here
holds state. Tensors are numpy arrays laid out (batch, channel, height,
width), float32 in normal use and float64 when checking gradients.

Convolution is evaluated as im2col plus matrix products, over columns
gathered from one strided view of the (zero-padded) input's k x k windows.
Patch rows run channel-major, then kernel row, then kernel column, matching
the declared accumulation order; the inner summation itself is delegated to
BLAS, so comparisons against the naive loop oracle use the relaxed 1e-5
relative tolerance rather than bit equality. The two directions lay their
columns out differently:

- The forward gathers (n, c*k*k, oh*ow) and takes one matrix product per
  sample. A stride-1, unpadded 1x1 convolution is already a matrix product
  over the input's own memory: the window view of a contiguous x is x
  itself, so np.ascontiguousarray makes no copy.
- The backward gathers (c*k*k, n*oh*ow), the batch folded into the
  columns, and transposes the output gradient once to (c_out, n*oh*ow).
  The weight gradient is then the one product gy @ cols.T, and the column
  gradient the one product w.T @ gy. A stride-1, unpadded 1x1 convolution
  returns its column gradient transposed to NCHW, with no zero buffer or
  scatter. Every other convolution scatters it, read through a transposed
  view, into a zero buffer laid out (h, w, n, c), one strided += per kernel
  position, so each addition streams n*c contiguous values rather than a
  short image row, and returns one contiguous NCHW copy; every element gets
  the same additions in the same order as an NCHW scatter would give it.

Convolution and fully connected backwards skip the input gradient, its
matrix product and its scatter when the caller says it is not needed.

Max pooling takes np.maximum over the four strided views x[:, :, i::2, j::2]
of the 2x2 windows. Its backward routes each window's gradient by equality
with that maximum, trying the positions in row-major window order, so ties
go to the first maximum and a window holding a NaN to its first NaN, as
argmax would.

Train-mode batchnorm views its input (n, c, h*w) and takes each
per-channel sum as one einsum contraction over that view's first and last
axes: the mean, then the variance from the once-centred input. It writes
(x - mean) * (gamma/std) + beta in place over the centred temporary. Its
per-channel batch mean and std = sqrt(var + eps) are handed back as
BatchStats, so the backward need not reduce over the batch again. The
backward uses the closed form (Ioffe & Szegedy 2015), evaluated in this
order in place over one centred temporary:

    dx = ((gy - (x - mean) * (dgamma / (m*std))) - dbeta/m) * (gamma/std)

over m = n*h*w values a channel, with dbeta = sum(gy) and dgamma =
sum(gy * (x - mean)) / std standing in for the two batch means.
"""

from dataclasses import dataclass

import numpy as np

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


@dataclass(frozen=True)
class RunningStats:
    """Batchnorm inference statistics. count == 0 means never updated."""

    mean: np.ndarray
    var: np.ndarray
    count: int = 0


@dataclass(frozen=True)
class BatchStats:
    """A train-mode batchnorm forward's per-channel batch mean and
    std = sqrt(var + eps): what its backward needs besides the input."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class LayerGrad:
    """Backward-pass result: gradient w.r.t. the input (None when it was
    not asked for) plus named parameter grads."""

    input_grad: np.ndarray | None
    param_grads: dict


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _check_nchw(x, name="input"):
    _require(isinstance(x, np.ndarray) and x.ndim == 4,
             f"{name} must be a 4-d (n, c, h, w) array, got shape "
             f"{getattr(x, 'shape', None)}")


def conv_output_size(size, kernel, stride, padding):
    """Spatial output extent: floor((size + 2*padding - kernel) / stride) + 1."""
    return (size + 2 * padding - kernel) // stride + 1


def _conv_geometry(x_shape, w_shape, stride, padding):
    n, c, h, w = x_shape
    c_out, c_in, kh, kw = w_shape
    _require(kh == kw, f"kernels must be square, got {kh}x{kw}")
    _require(c == c_in,
             f"channel mismatch: input has {c} channels, kernel expects {c_in}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    _require(oh > 0 and ow > 0,
             f"non-positive output size {oh}x{ow} for input {h}x{w}, "
             f"kernel {kh}, stride {stride}, padding {padding}")
    return n, c, h, w, c_out, kh, oh, ow


def _windows(x, k, stride, padding, oh, ow):
    """Read-only (n, c, k, k, oh, ow) view of x's k x k windows, over a
    zero-padded copy when padding > 0."""
    n, c, h, w = x.shape
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _im2col(x, k, stride, padding, oh, ow):
    """Forward columns (n, c*k*k, oh*ow); channel-major, kernel row, kernel column."""
    n, c = x.shape[:2]
    windows = _windows(x, k, stride, padding, oh, ow)
    return np.ascontiguousarray(windows).reshape(n, c * k * k, oh * ow)


def _im2col_batch(x, k, stride, padding, oh, ow):
    """Backward columns (c*k*k, n*oh*ow): the rows ordered as _im2col's,
    the batch folded into the columns."""
    n, c = x.shape[:2]
    windows = _windows(x, k, stride, padding, oh, ow).transpose(1, 2, 3, 0, 4, 5)
    return np.ascontiguousarray(windows).reshape(c * k * k, n * oh * ow)


def conv2d_forward(x, weights, bias=None, stride=1, padding=0):
    """2-d convolution (cross-correlation), NCHW in, NCHW out."""
    _check_nchw(x)
    _require(weights.ndim == 4, f"weights must be 4-d, got shape {weights.shape}")
    n, c, h, w, c_out, k, oh, ow = _conv_geometry(x.shape, weights.shape, stride, padding)
    cols = _im2col(x, k, stride, padding, oh, ow)
    wmat = weights.reshape(c_out, -1)
    y = np.matmul(wmat, cols).reshape(n, c_out, oh, ow)
    if bias is not None:
        _require(bias.shape == (c_out,),
                 f"bias shape {bias.shape} does not match {c_out} output channels")
        y = y + bias[None, :, None, None]
    return y


def conv2d_backward(x, weights, bias, output_grad, stride=1, padding=0,
                    input_grad=True):
    """Gradients of a scalar loss through conv2d_forward. With
    input_grad=False the input gradient is not computed and is None."""
    _check_nchw(x)
    n, c, h, w, c_out, k, oh, ow = _conv_geometry(x.shape, weights.shape, stride, padding)
    _require(output_grad.shape == (n, c_out, oh, ow),
             f"output_grad shape {output_grad.shape} does not match forward "
             f"output ({n}, {c_out}, {oh}, {ow})")
    cols = _im2col_batch(x, k, stride, padding, oh, ow)
    gy = np.ascontiguousarray(output_grad.transpose(1, 0, 2, 3)).reshape(c_out, -1)

    grads = {}
    if bias is not None:
        grads["b"] = gy.sum(axis=1)
    grads["w"] = (gy @ cols.T).reshape(weights.shape)
    if not input_grad:
        return LayerGrad(None, grads)

    gcols = weights.reshape(c_out, -1).T @ gy  # (c*k*k, n*oh*ow)
    if k == 1 and stride == 1 and padding == 0:  # each input read once: no scatter
        return LayerGrad(np.ascontiguousarray(
            gcols.reshape(c, n, h, w).transpose(1, 0, 2, 3)), grads)
    # Scatter channels-last, so each += runs over n*c contiguous floats;
    # every element receives the same additions in the same (i, j) order.
    g6 = gcols.reshape(c, k, k, n, oh, ow).transpose(1, 2, 4, 5, 3, 0)
    gx_pad = np.zeros((h + 2 * padding, w + 2 * padding, n, c), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            gx_pad[i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[i, j]
    gx = gx_pad[padding:padding + h, padding:padding + w]
    return LayerGrad(np.ascontiguousarray(gx.transpose(2, 3, 0, 1)), grads)


def maxpool2x2(x):
    """2x2 max pooling with stride 2. Input extents must be even."""
    _check_nchw(x)
    n, c, h, w = x.shape
    _require(h % 2 == 0 and w % 2 == 0,
             f"maxpool2x2 needs even spatial extents, got {h}x{w}")
    return np.maximum(np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                      np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]))


def maxpool2x2_backward(x, output_grad):
    """Routes each window's gradient to the first maximum in row-major window order."""
    _check_nchw(x)
    n, c, h, w = x.shape
    _require(h % 2 == 0 and w % 2 == 0,
             f"maxpool2x2 needs even spatial extents, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    _require(output_grad.shape == (n, c, h2, w2),
             f"output_grad shape {output_grad.shape} does not match pooled "
             f"shape ({n}, {c}, {h2}, {w2})")
    top = maxpool2x2(x)
    zero = x.dtype.type(0)
    gx = np.empty_like(x)
    free = np.ones(top.shape, dtype=bool)  # windows not yet routed
    # Window positions in row-major order; (1, 1) takes the windows left over.
    for i, j in ((0, 0), (0, 1), (1, 0)):
        xv = x[:, :, i::2, j::2]
        hit = xv == top
        hit |= np.isnan(xv)  # a NaN window's maximum is NaN, equal to nothing
        hit &= free
        free ^= hit
        gx[:, :, i::2, j::2] = np.where(hit, output_grad, zero)
    gx[:, :, 1::2, 1::2] = np.where(free, output_grad, zero)
    return gx


def avgpool_global(x):
    """Global average pooling to spatial size 1x1."""
    _check_nchw(x)
    return x.mean(axis=(2, 3), keepdims=True)


def avgpool_global_backward(x, output_grad):
    n, c, h, w = x.shape
    _require(output_grad.shape == (n, c, 1, 1),
             f"output_grad shape {output_grad.shape} does not match ({n}, {c}, 1, 1)")
    return np.broadcast_to(output_grad / (h * w), x.shape).astype(x.dtype, copy=True)


def _batch_moments(x, eps):
    """(mean, biased var, std, x - mean) per channel over the (n, h, w)
    axes, the centred input laid out (n, c, h*w). Each sum is one einsum
    contraction over that layout's first and last axes; the variance is
    summed from the centred input."""
    n, c = x.shape[:2]
    m = x.size // c
    x3 = x.reshape(n, c, -1)
    mean = np.einsum("nck->c", x3) / m
    d = x3 - mean[:, None]
    var = np.einsum("nck,nck->c", d, d) / m
    return mean, var, np.sqrt(var + eps), d


def _check_batchnorm(x, gamma, beta):
    _check_nchw(x)
    c = x.shape[1]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match {c} channels")


def batchnorm_train(x, gamma, beta, running=None, eps=BN_EPS):
    """Train-mode batchnorm: normalizes with biased batch statistics.

    Returns (output, updated RunningStats, BatchStats). The running
    statistics are an EMA, the first batch seeding them directly; the
    BatchStats are what batchnorm_backward needs to skip its reductions.
    """
    _check_batchnorm(x, gamma, beta)
    mean, var, std, y = _batch_moments(x, eps)
    y *= (gamma / std)[:, None]
    y += beta[:, None]
    if running is None or running.count == 0:
        new = RunningStats(mean.copy(), var.copy(), 1)
    else:
        new = RunningStats(BN_MOMENTUM * running.mean + (1 - BN_MOMENTUM) * mean,
                           BN_MOMENTUM * running.var + (1 - BN_MOMENTUM) * var,
                           running.count + 1)
    return y.reshape(x.shape), new, BatchStats(mean, std)


def batchnorm(x, gamma, beta, running=None, mode="train", eps=BN_EPS):
    """Per-channel batch normalization over the (n, h, w) axes.

    Train mode is batchnorm_train. Inference mode uses the running
    statistics and requires count > 0. Returns (output, RunningStats).
    """
    if mode == "train":
        return batchnorm_train(x, gamma, beta, running, eps)[:2]
    if mode == "infer":
        _check_batchnorm(x, gamma, beta)
        _require(running is not None and running.count > 0,
                 "inference-mode batchnorm with uninitialized running statistics")
        inv = 1.0 / np.sqrt(running.var + eps)
        y = gamma[None, :, None, None] * (x - running.mean[None, :, None, None]) \
            * inv[None, :, None, None] + beta[None, :, None, None]
        return y, running
    raise ValueError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(x, gamma, beta, output_grad, eps=BN_EPS, saved=None):
    """Train-mode batchnorm gradients. saved is the forward's BatchStats;
    without it the batch statistics are recomputed from x, to the same bits."""
    _check_nchw(x)
    _require(output_grad.shape == x.shape,
             f"output_grad shape {output_grad.shape} does not match input {x.shape}")
    n, c = x.shape[:2]
    m = x.size // c
    if saved is None:
        _, _, std, t = _batch_moments(x, eps)
    else:
        std, t = saved.std, x.reshape(n, c, -1) - saved.mean[:, None]
    gy = output_grad.reshape(n, c, -1)
    dbeta = np.einsum("nck->c", gy)
    dgamma = np.einsum("nck,nck->c", gy, t) / std
    # dx = ((gy - t * (dgamma / (m*std))) - dbeta/m) * (gamma/std), in t's memory
    t *= (dgamma / (m * std))[:, None]
    np.subtract(gy, t, out=t)
    t -= (dbeta / m)[:, None]
    t *= (gamma / std)[:, None]
    return LayerGrad(t.reshape(x.shape), {"gamma": dgamma, "beta": dbeta})


def relu(x):
    return np.maximum(x, 0)


def relu_backward(x, output_grad):
    """Subgradient 0 at exactly 0."""
    _require(output_grad.shape == x.shape,
             f"output_grad shape {output_grad.shape} does not match input {x.shape}")
    return output_grad * (x > 0)


def elementwise_add(a, b):
    _require(a.shape == b.shape,
             f"elementwise_add shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def elementwise_add_backward(output_grad):
    return output_grad, output_grad


def fully_connected(x, weights, bias):
    """y = x W + b on inputs collapsed to (n, d)."""
    x2 = x.reshape(x.shape[0], -1)
    d, m = weights.shape
    _require(x2.shape[1] == d,
             f"fully_connected input dimension {x2.shape[1]} does not match "
             f"weight rows {d}")
    _require(bias.shape == (m,), f"bias shape {bias.shape} does not match ({m},)")
    return x2 @ weights + bias


def fully_connected_backward(x, weights, output_grad, input_grad=True):
    """Gradients through fully_connected. With input_grad=False the input
    gradient is not computed and is None."""
    x2 = x.reshape(x.shape[0], -1)
    n, m = output_grad.shape
    d = weights.shape[0]
    _require(output_grad.shape == (n, weights.shape[1]) and x2.shape == (n, d),
             f"fully_connected_backward shape mismatch: input {x.shape}, "
             f"weights {weights.shape}, output_grad {output_grad.shape}")
    gx = (output_grad @ weights.T).reshape(x.shape) if input_grad else None
    return LayerGrad(gx, {"w": x2.T @ output_grad, "b": output_grad.sum(axis=0)})


def softmax(logits):
    """Row-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def label_indices(labels, n, m):
    """Class indices of n softmax labels over m classes, given as indices
    or as one-hot rows."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        _require(labels.shape[0] == n, f"expected {n} labels, got {labels.shape[0]}")
        _require(np.issubdtype(labels.dtype, np.integer),
                 "1-d labels must be integer class indices")
        _require(labels.min() >= 0 and labels.max() < m,
                 f"label out of range [0, {m}) in {labels.min()}..{labels.max()}")
        return labels
    if labels.ndim == 2:
        _require(labels.shape == (n, m),
                 f"one-hot labels shape {labels.shape} does not match ({n}, {m})")
        _require(np.all((labels == 0) | (labels == 1)) and np.all(labels.sum(axis=1) == 1),
                 "2-d labels must be one-hot rows")
        return labels.argmax(axis=1)
    raise ValueError(f"labels must be 1-d indices or 2-d one-hot, got ndim {labels.ndim}")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch.

    Returns (loss, probabilities, logit_grad) with
    logit_grad = (probabilities - onehot) / n.
    """
    _require(logits.ndim == 2, f"logits must be (n, m), got shape {logits.shape}")
    n, m = logits.shape
    _require(m >= 2, f"softmax needs at least 2 classes, got {m}")
    idx = label_indices(labels, n, m)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = float((lse - z[np.arange(n), idx]).mean())
    probs = softmax(logits)
    grad = probs.copy()
    grad[np.arange(n), idx] -= 1.0
    grad /= n
    return loss, probs, grad


def sigmoid(logits):
    """Numerically stable element-wise logistic function."""
    e = np.exp(-np.abs(logits))
    return np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_multilabel_loss(logits, labels):
    """Mean binary cross-entropy over all n*m independent sigmoid outputs.

    Returns (loss, scores, logit_grad) with logit_grad = (scores - labels) / (n*m).
    """
    _require(logits.ndim == 2, f"logits must be (n, m), got shape {logits.shape}")
    labels = np.asarray(labels)
    _require(labels.shape == logits.shape,
             f"labels shape {labels.shape} does not match logits {logits.shape}")
    _require(np.all((labels == 0) | (labels == 1)), "multilabel targets must be 0/1")
    n, m = logits.shape
    y = labels.astype(logits.dtype)
    per = np.maximum(logits, 0) - logits * y + np.log1p(np.exp(-np.abs(logits)))
    scores = sigmoid(logits)
    return float(per.mean()), scores, (scores - y) / (n * m)
