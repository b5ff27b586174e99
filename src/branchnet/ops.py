"""Layer primitives: pure forward and backward functions on channels-last
arrays.

Every operation takes explicit inputs and returns new arrays, except where
relu, elementwise_add and inference-mode batchnorm are handed out=, an
array of the output's shape and dtype (the input itself may be): they
write into it, to the bits a new array would hold. Nothing here holds
state. Activations are numpy arrays laid out (batch, height, width,
channel), float32 in normal use and float64 when checking gradients, and
convolution weights (kernel row, kernel column, in, out). The engine holds
every activation this way, so one layout serves forward and backward;
graph shapes, graph text and the checkpoint keep (c, h, w) and (out, in,
k, k) order (see engine and graph.NodeKind.stored).

Convolution is im2col plus one matrix product in each direction, over one
column matrix (n*oh*ow, k*k*c): row (b, i, j) holds the window under output
pixel (i, j) of sample b, kernel row, then kernel column, then channel,
gathered by _im2col from one strided view of the (zero-padded) input. With
w2 the weights viewed (k*k*c, out):

- the forward is cols @ w2, already (n, oh, ow, out);
- the weight gradient is cols.T @ gy and the column gradient gy @ w2.T,
  the output gradient gy viewed (n*oh*ow, out) with no transpose;
- the input gradient scatters the column gradient into a zero-padded
  (n, h, w, c) buffer, one strided += per kernel position, each adding
  runs of c contiguous floats, and crops the padding.

A plain 1x1 convolution (stride 1, no padding) copies nothing in either
direction: _im2col's view of a contiguous input is that input, and its
input gradient is the column gradient reshaped. The backward gathers its
columns again rather than keeping the forward's: a
batch-32 desk step's columns are 11.4 MiB, which would stay alive from
each conv's forward to its backward. The inner summation is delegated to
BLAS, so comparisons against the naive loop oracle use the relaxed 1e-5
relative tolerance rather than bit equality.

The two products with n*oh*ow rows, the forward and the column gradient,
take at most GEMM_ROWS rows a call (_row_products), and the forward takes
each sample's rows on their own. OpenBLAS picks its kernel by the size of
the product, so a sample's forward bits would otherwise depend on the
rest of its batch, and an engine.infer chunk would not give the bits of
a whole-batch pass (seen at 34 desk samples). And one product over every
row lets threaded OpenBLAS touch far more of its packing buffers: it
raised the peak RSS of a canonical batch-1 forward by 20 MB with 2 BLAS
threads, where blocks of 1024 rows stay within 3 MB of the per-sample
products before this layout.

Convolution and fully connected backwards skip the input gradient, its
matrix product and its scatter when the caller says it is not needed.
Fully connected flattens a 4-d input in (c, h, w) order, so its weights
mean what they did in the (c, h, w) graph shapes; over a 1x1 input that
is a view.

Max pooling takes np.maximum over the four strided views x[:, i::2, j::2]
of the 2x2 windows. Its backward routes each window's gradient by equality
with that maximum, trying the positions in row-major window order, so ties
go to the first maximum and a window holding a NaN to its first NaN, as
argmax would.

Train-mode batchnorm views its input (n*h*w, c) and takes each
per-channel sum as one einsum contraction over that view's first axis:
the mean, then the variance from the once-centred input. It writes
(x - mean) * (gamma/std) + beta in place over the centred temporary. Its
per-channel batch mean and std = sqrt(var + eps) are handed back as
BatchStats, so the backward need not reduce over the batch again. The
backward uses the closed form (Ioffe & Szegedy 2015), evaluated in this
order in place over one centred temporary:

    dx = ((gy - (x - mean) * (dgamma / (m*std))) - dbeta/m) * (gamma/std)

over m = n*h*w values a channel, with dbeta = sum(gy) and dgamma =
sum(gy * (x - mean)) / std standing in for the two batch means.

Inference-mode batchnorm is a fixed per-channel linear map (Ioffe &
Szegedy 2015, section 3.1). It folds gamma, beta and the running
statistics into two vectors of c floats,

    scale = gamma / sqrt(running var + eps);  shift = beta - running mean * scale

and makes two passes over the activation: x * scale into out when given,
else into a new array, then shift added in place. A shift wider than that
product (float64 statistics over a float32 input, say) takes a new array
of the wider dtype instead, as x * scale + shift would, so no result is
cast. The fold rounds differently from gamma * (x - mean) * inv + beta,
most where mean * scale is large beside the output and the shift cancels.
"""

from dataclasses import dataclass

import numpy as np

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
GEMM_ROWS = 1024  # most rows of a column matrix one matrix product takes


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


def _into(ufunc, a, b, y):
    """ufunc(a, b) written over y when the result has y's dtype, so it is
    the bits a new array would hold; a new array when a wider operand
    widens the result."""
    return ufunc(a, b, out=y if np.result_type(a, b) == y.dtype else None)


def _check_nhwc(x, name="input"):
    _require(isinstance(x, np.ndarray) and x.ndim == 4,
             f"{name} must be a 4-d (n, h, w, c) array, got shape "
             f"{getattr(x, 'shape', None)}")


def conv_output_size(size, kernel, stride, padding):
    """Spatial output extent: floor((size + 2*padding - kernel) / stride) + 1."""
    return (size + 2 * padding - kernel) // stride + 1


def _conv_geometry(x_shape, w_shape, stride, padding):
    n, h, w, c = x_shape
    kh, kw, c_in, c_out = w_shape
    _require(kh == kw, f"kernels must be square, got {kh}x{kw}")
    _require(c == c_in,
             f"channel mismatch: input has {c} channels, kernel expects {c_in}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    _require(oh > 0 and ow > 0,
             f"non-positive output size {oh}x{ow} for input {h}x{w}, "
             f"kernel {kh}, stride {stride}, padding {padding}")
    return n, h, w, c, c_out, kh, oh, ow


def _im2col(x, k, stride, padding, oh, ow):
    """Columns (n*oh*ow, k*k*c) of x's k x k windows: kernel row, kernel
    column, then channel, copied from one strided view over a zero-padded
    copy of x when padding > 0, unless that view is already contiguous, as
    a plain 1x1 conv's over a contiguous x is: then x's own memory."""
    n, h, w, c = x.shape
    if padding:
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        padded[:, padding:padding + h, padding:padding + w] = x
        x = padded
    sn, sh, sw, sc = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, k, k, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    return np.ascontiguousarray(windows).reshape(n * oh * ow, k * k * c)


def _plain(k, stride, padding):
    """Whether a convolution reads each input pixel once, as one column."""
    return k == 1 and stride == 1 and padding == 0


def _row_products(a, b, n=1):
    """a @ b, a's rows split into n equal blocks, each taken in products
    of at most GEMM_ROWS rows; with n the batch size every sample's rows
    get the same products, whatever else the batch holds."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    a3, o3 = a.reshape(n, -1, a.shape[1]), out.reshape(n, -1, b.shape[1])
    for i in range(0, a3.shape[1], GEMM_ROWS):
        np.matmul(a3[:, i:i + GEMM_ROWS], b, out=o3[:, i:i + GEMM_ROWS])
    return out


def conv2d_forward(x, weights, bias=None, stride=1, padding=0):
    """2-d convolution (cross-correlation), (n, h, w, c) in, (n, oh, ow,
    out) out, weights (k, k, in, out)."""
    _check_nhwc(x)
    _require(weights.ndim == 4, f"weights must be 4-d, got shape {weights.shape}")
    n, h, w, c, c_out, k, oh, ow = _conv_geometry(x.shape, weights.shape, stride, padding)
    cols = _im2col(x, k, stride, padding, oh, ow)
    y = _row_products(cols, weights.reshape(-1, c_out), n).reshape(n, oh, ow, c_out)
    if bias is not None:
        _require(bias.shape == (c_out,),
                 f"bias shape {bias.shape} does not match {c_out} output channels")
        y += bias
    return y


def conv2d_backward(x, weights, bias, output_grad, stride=1, padding=0,
                    input_grad=True):
    """Gradients of a scalar loss through conv2d_forward. With
    input_grad=False the input gradient is not computed and is None."""
    _check_nhwc(x)
    n, h, w, c, c_out, k, oh, ow = _conv_geometry(x.shape, weights.shape, stride, padding)
    _require(output_grad.shape == (n, oh, ow, c_out),
             f"output_grad shape {output_grad.shape} does not match forward "
             f"output ({n}, {oh}, {ow}, {c_out})")
    cols = _im2col(x, k, stride, padding, oh, ow)
    gy = output_grad.reshape(-1, c_out)

    grads = {}
    if bias is not None:
        grads["b"] = gy.sum(axis=0)
    grads["w"] = (cols.T @ gy).reshape(weights.shape)
    if not input_grad:
        return LayerGrad(None, grads)

    gcols = _row_products(gy, weights.reshape(-1, c_out).T)  # (n*oh*ow, k*k*c)
    if _plain(k, stride, padding):  # each input pixel read once: no scatter
        return LayerGrad(gcols.reshape(x.shape), grads)
    g6 = gcols.reshape(n, oh, ow, k, k, c)
    gx = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, :, i, j]
    if padding:
        gx = np.ascontiguousarray(gx[:, padding:padding + h, padding:padding + w])
    return LayerGrad(gx, grads)


def maxpool2x2(x):
    """2x2 max pooling with stride 2. Input extents must be even."""
    _check_nhwc(x)
    n, h, w, c = x.shape
    _require(h % 2 == 0 and w % 2 == 0,
             f"maxpool2x2 needs even spatial extents, got {h}x{w}")
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def maxpool2x2_backward(x, output_grad):
    """Routes each window's gradient to the first maximum in row-major window order."""
    top = maxpool2x2(x)
    _require(output_grad.shape == top.shape,
             f"output_grad shape {output_grad.shape} does not match pooled "
             f"shape {top.shape}")
    zero = x.dtype.type(0)
    gx = np.empty_like(x)
    free = np.ones(top.shape, dtype=bool)  # windows not yet routed
    # Window positions in row-major order; (1, 1) takes the windows left over.
    for i, j in ((0, 0), (0, 1), (1, 0)):
        xv = x[:, i::2, j::2]
        hit = xv == top
        hit |= np.isnan(xv)  # a NaN window's maximum is NaN, equal to nothing
        hit &= free
        free ^= hit
        gx[:, i::2, j::2] = np.where(hit, output_grad, zero)
    gx[:, 1::2, 1::2] = np.where(free, output_grad, zero)
    return gx


def avgpool_global(x):
    """Global average pooling to spatial size 1x1."""
    _check_nhwc(x)
    return x.mean(axis=(1, 2), keepdims=True)


def avgpool_global_backward(x, output_grad):
    n, h, w, c = x.shape
    _require(output_grad.shape == (n, 1, 1, c),
             f"output_grad shape {output_grad.shape} does not match ({n}, 1, 1, {c})")
    return np.broadcast_to(output_grad / (h * w), x.shape).astype(x.dtype, copy=True)


def _batch_moments(x, eps):
    """(mean, biased var, std, x - mean) per channel over the (n, h, w)
    axes, the centred input laid out (n*h*w, c). Each sum is one einsum
    contraction over that layout's first axis; the variance is summed from
    the centred input."""
    c = x.shape[-1]
    m = x.size // c
    x2 = x.reshape(m, c)
    mean = np.einsum("mc->c", x2) / m
    d = x2 - mean
    var = np.einsum("mc,mc->c", d, d) / m
    return mean, var, np.sqrt(var + eps), d


def _check_batchnorm(x, gamma, beta, running):
    _check_nhwc(x)
    c = x.shape[3]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    if running is not None:
        _require(running.mean.shape == running.var.shape == (c,),
                 f"running mean/var shapes {running.mean.shape}/"
                 f"{running.var.shape} do not match {c} channels")


def batchnorm_train(x, gamma, beta, running=None, eps=BN_EPS):
    """Train-mode batchnorm: normalizes with biased batch statistics.

    Returns (output, updated RunningStats, BatchStats). The running
    statistics are an EMA, the first batch seeding them directly; the
    BatchStats are what batchnorm_backward needs to skip its reductions.
    """
    _check_batchnorm(x, gamma, beta, running)
    mean, var, std, y = _batch_moments(x, eps)
    y *= gamma / std
    y += beta
    if running is None or running.count == 0:
        new = RunningStats(mean.copy(), var.copy(), 1)
    else:
        new = RunningStats(BN_MOMENTUM * running.mean + (1 - BN_MOMENTUM) * mean,
                           BN_MOMENTUM * running.var + (1 - BN_MOMENTUM) * var,
                           running.count + 1)
    return y.reshape(x.shape), new, BatchStats(mean, std)


def batchnorm(x, gamma, beta, running=None, mode="train", eps=BN_EPS,
              out=None):
    """Per-channel batch normalization over the (n, h, w) axes.

    Train mode is batchnorm_train. Inference mode uses the running
    statistics and requires count > 0; it computes x * scale + shift (see
    above), writing into out when one is given (x itself may be), and into
    a new array otherwise. Both modes require gamma, beta and any running
    mean and var to hold one value a channel. Returns (output,
    RunningStats).
    """
    if mode == "train":
        return batchnorm_train(x, gamma, beta, running, eps)[:2]
    if mode == "infer":
        _check_batchnorm(x, gamma, beta, running)
        _require(running is not None and running.count > 0,
                 "inference-mode batchnorm with uninitialized running statistics")
        scale = gamma / np.sqrt(running.var + eps)
        shift = beta - running.mean * scale
        y = np.multiply(x, scale, out=out)
        return _into(np.add, y, shift, y), running
    raise ValueError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(x, gamma, beta, output_grad, eps=BN_EPS, saved=None):
    """Train-mode batchnorm gradients. saved is the forward's BatchStats;
    without it the batch statistics are recomputed from x, to the same bits."""
    _check_nhwc(x)
    _require(output_grad.shape == x.shape,
             f"output_grad shape {output_grad.shape} does not match input {x.shape}")
    c = x.shape[3]
    m = x.size // c
    if saved is None:
        _, _, std, t = _batch_moments(x, eps)
    else:
        std, t = saved.std, x.reshape(m, c) - saved.mean
    gy = output_grad.reshape(m, c)
    dbeta = np.einsum("mc->c", gy)
    dgamma = np.einsum("mc,mc->c", gy, t) / std
    # dx = ((gy - t * (dgamma / (m*std))) - dbeta/m) * (gamma/std), in t's memory
    t *= dgamma / (m * std)
    np.subtract(gy, t, out=t)
    t -= dbeta / m
    t *= gamma / std
    return LayerGrad(t.reshape(x.shape), {"gamma": dgamma, "beta": dbeta})


def relu(x, out=None):
    return np.maximum(x, 0, out=out)


def relu_backward(x, output_grad):
    """Subgradient 0 at exactly 0."""
    _require(output_grad.shape == x.shape,
             f"output_grad shape {output_grad.shape} does not match input {x.shape}")
    return output_grad * (x > 0)


def elementwise_add(a, b, out=None):
    _require(a.shape == b.shape,
             f"elementwise_add shape mismatch: {a.shape} vs {b.shape}")
    return np.add(a, b, out=out)


def elementwise_add_backward(output_grad):
    return output_grad, output_grad


def _chw_rows(x):
    """x as (n, d) rows; a 4-d (n, h, w, c) input flattened in (c, h, w) order."""
    if x.ndim == 4:
        x = x.transpose(0, 3, 1, 2)
    return x.reshape(x.shape[0], -1)


def fully_connected(x, weights, bias):
    """y = x W + b on inputs collapsed to (n, d) (see _chw_rows)."""
    x2 = _chw_rows(x)
    d, m = weights.shape
    _require(x2.shape[1] == d,
             f"fully_connected input dimension {x2.shape[1]} does not match "
             f"weight rows {d}")
    _require(bias.shape == (m,), f"bias shape {bias.shape} does not match ({m},)")
    return x2 @ weights + bias


def fully_connected_backward(x, weights, output_grad, input_grad=True):
    """Gradients through fully_connected. With input_grad=False the input
    gradient is not computed and is None."""
    x2 = _chw_rows(x)
    n, m = output_grad.shape
    d = weights.shape[0]
    _require(output_grad.shape == (n, weights.shape[1]) and x2.shape == (n, d),
             f"fully_connected_backward shape mismatch: input {x.shape}, "
             f"weights {weights.shape}, output_grad {output_grad.shape}")
    gx = None
    if input_grad:
        gx = output_grad @ weights.T
        if x.ndim == 4:  # back from (c, h, w) order
            n, h, w, c = x.shape
            gx = gx.reshape(n, c, h, w).transpose(0, 2, 3, 1)
        gx = gx.reshape(x.shape)
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
    e = np.exp(z)  # the one exponential: softmax(logits) is e / total
    total = e.sum(axis=1, keepdims=True)
    loss = float((np.log(total[:, 0]) - z[np.arange(n), idx]).mean())
    probs = e / total
    grad = probs.copy()
    grad[np.arange(n), idx] -= 1.0
    grad /= n
    return loss, probs, grad


def sigmoid(logits):
    """Numerically stable element-wise logistic function."""
    return _logistic(logits, np.exp(-np.abs(logits)))


def _logistic(logits, e):
    """sigmoid(logits), given e = exp(-|logits|)."""
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
    e = np.exp(-np.abs(logits))  # the one exponential: scores are sigmoid's
    per = np.maximum(logits, 0) - logits * y + np.log1p(e)
    scores = _logistic(logits, e)
    return float(per.mean()), scores, (scores - y) / (n * m)
