"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops,
brute-force sweeps) so that a disagreement points at the production code
rather than at a shared helper.
"""

import hashlib

import numpy as np


def conv2d_loops(x, w, bias=None, stride=1, padding=0):
    """Direct convolution. The inner accumulation runs input channel, then
    kernel row, then kernel column, entirely in float64."""
    n, cin, h, wid = x.shape
    cout, cin_w, k, k2 = w.shape
    assert cin == cin_w and k == k2
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wid + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += float(xp[b, c, i * stride + u, j * stride + v]) \
                                    * float(w[o, c, u, v])
                    if bias is not None:
                        acc += float(bias[o])
                    out[b, o, i, j] = acc
    return out


def im2col_np_pad(x, k, stride, padding, oh, ow):
    """Columns (n*oh*ow, k*k*c) of an (n, h, w, c) input over an np.pad
    copy: the bitwise reference for ops._im2col."""
    n, c = x.shape[0], x.shape[3]
    x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    sn, sh, sw, sc = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, k, k, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc))
    return np.ascontiguousarray(windows).reshape(n * oh * ow, k * k * c)


def _im2col_nchw(x, k, stride, padding, oh, ow):
    """Per-sample columns (n, c*k*k, oh*ow) of an (n, c, h, w) input."""
    n, c = x.shape[:2]
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, k, k, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    return np.ascontiguousarray(windows).reshape(n, c * k * k, oh * ow)


def _scatter_nchw(g6, x_shape, stride, padding):
    """Sum column gradients g6 (n, c, k, k, oh, ow) into a zero-padded NCHW
    buffer, one strided += per kernel position, and crop the padding."""
    n, c, h, wd = x_shape
    k, oh, ow = g6.shape[2], g6.shape[4], g6.shape[5]
    gx = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=g6.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, i, j]
    return gx[:, :, padding:padding + h, padding:padding + wd]


def conv2d_backward_per_sample(x, w, b, gy, stride, padding):
    """(input, weight, bias) gradients of a convolution on an (n, c, h, w)
    input and (out, in, k, k) weights, with one matrix product per sample:
    the weight gradient summed over per-sample products, the bias gradient
    reduced over the (n, h, w) axes of gy."""
    n = x.shape[0]
    c_out, _, k, _ = w.shape
    oh, ow = gy.shape[2:]
    cols = _im2col_nchw(x, k, stride, padding, oh, ow)
    g = gy.reshape(n, c_out, oh * ow)
    gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    g6 = np.matmul(w.reshape(c_out, -1).T, g).reshape(n, -1, k, k, oh, ow)
    return _scatter_nchw(g6, x.shape, stride, padding), gw, gy.sum(axis=(0, 2, 3))


def conv2d_backward_batch_gemm(x, w, b, gy, stride, padding, rows):
    """(input, weight, bias) gradients of a convolution on an (n, h, w, c)
    input and (k, k, in, out) weights, with the batch folded into the
    matrix products: columns (n*oh*ow, k*k*c) over an np.pad copy, weight
    gradient cols.T @ gy, column gradient gy @ w.T in products of `rows`
    rows, each kernel position's slice of it added into a zero-padded
    (n, h, w, c) buffer, cropped. The bitwise reference for
    conv2d_backward, given its GEMM_ROWS."""
    n, h, wd, c = x.shape
    k, c_out = w.shape[0], w.shape[3]
    oh, ow = gy.shape[1:3]
    cols = im2col_np_pad(x, k, stride, padding, oh, ow)
    g = gy.reshape(n * oh * ow, c_out)
    w2 = w.reshape(k * k * c, c_out)
    g6 = np.concatenate([g[i:i + rows] @ w2.T for i in range(0, len(g), rows)]
                        ).reshape(n, oh, ow, k, k, c)
    gx = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=g6.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, :, i, j]
    gx = gx[:, padding:padding + h, padding:padding + wd]
    return gx, (cols.T @ g).reshape(w.shape), g.sum(axis=0)


def maxpool2x2_scan(x):
    """Scans each window in row-major order. A NaN, once met, is the
    result, as in np.max. A value equal to the running maximum replaces it,
    which shows only in the sign of a zero: np.maximum returns its second
    operand on ties, so a window of -0.0 then +0.0 pools to +0.0."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    win = x[b, ch, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    best = win[0, 0]
                    for v in (win[0, 1], win[1, 0], win[1, 1]):
                        if not np.isnan(best) and (np.isnan(v) or v >= best):
                            best = v
                    out[b, ch, i, j] = best
    return out


def maxpool2x2_backward_scan(x, output_grad):
    """Routes each gradient to the first maximum in row-major window order;
    a window holding a NaN routes to its first NaN, as argmax does."""
    n, c, h, w = x.shape
    gx = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    win = x[b, ch, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    best, bi, bj = win[0, 0], 0, 0
                    for u in range(2):
                        for v in range(2):
                            if not np.isnan(best) and (np.isnan(win[u, v])
                                                       or win[u, v] > best):
                                best, bi, bj = win[u, v], u, v
                    gx[b, ch, 2 * i + bi, 2 * j + bj] += output_grad[b, ch, i, j]
    return gx


def avgpool_scan(x):
    n, c, h, w = x.shape
    out = np.empty((n, c, 1, 1), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            out[b, ch, 0, 0] = float(x[b, ch].sum()) / (h * w)
    return out


def batchnorm_train_loops(x, gamma, beta, eps):
    """Per-channel normalization computed channel by channel in float64."""
    n, c, h, w = x.shape
    y = np.empty_like(x, dtype=np.float64)
    for ch in range(c):
        vals = x[:, ch].astype(np.float64)
        mu = float(vals.sum()) / vals.size
        var = float(((vals - mu) ** 2).sum()) / vals.size
        y[:, ch] = (vals - mu) / np.sqrt(var + eps) * float(gamma[ch]) + float(beta[ch])
    return y


def forward_loops(graph, weights, x, eps=1e-5):
    """Every node's train-mode output over an (n, c, h, w) input, node by
    node in graph order with the oracles above, in float64 and in (n, c,
    h, w) layout; weights maps parameter name -> array, conv weights
    (out, in, k, k). Heads are left out: the logits are fc's output."""
    acts = {"input": x.astype(np.float64)}
    for node in graph.nodes:
        a, ins = node.attrs, [acts[src] for src in node.inputs]
        p = {s.rpartition("/")[2]: v for s, v in weights.items()
             if s.rpartition("/")[0] == node.name}
        if node.kind == "conv":
            out = conv2d_loops(ins[0], p["w"], p.get("b"), a["stride"], a["pad"])
        elif node.kind == "batchnorm":
            out = batchnorm_train_loops(ins[0], p["gamma"], p["beta"],
                                        a.get("eps", eps))
        elif node.kind == "relu":
            out = np.where(ins[0] > 0, ins[0], 0.0)
        elif node.kind == "maxpool":
            out = maxpool2x2_scan(ins[0])
        elif node.kind == "avgpool":
            out = avgpool_scan(ins[0])
        elif node.kind == "add":
            out = ins[0] + ins[1]
        elif node.kind == "fc":
            out = ins[0].reshape(len(ins[0]), -1) @ p["w"] + p["b"]
        else:
            continue
        acts[node.name] = out
    return acts


def threshold_sweep(sims, labels):
    """Best accuracy threshold for "same iff sim >= t" by direct evaluation
    of every candidate; ties go to the smallest candidate."""
    sims = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    vals = np.unique(sims)
    cands = [-np.inf]
    for a, b in zip(vals[:-1], vals[1:]):
        cands.append((a + b) / 2.0)
    cands.append(np.inf)
    best_t, best_acc = None, -1.0
    for t in cands:
        correct = int((((sims >= t)) == labels).sum())
        acc = correct / sims.size
        if acc > best_acc:
            best_t, best_acc = float(t), acc
    return best_t, best_acc


def verify_sweep(sims, labels, splits):
    """Leave-one-split-out: fit a threshold on the other splits, score the
    held-out one. Returns [(split, threshold, accuracy)] in split order."""
    sims = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    splits = np.asarray(splits, dtype=int)
    out = []
    for s in np.unique(splits):
        held = splits == s
        t, _ = threshold_sweep(sims[~held], labels[~held])
        pred = sims[held] >= t
        acc = int((pred == labels[held]).sum()) / int(held.sum())
        out.append((int(s), t, acc))
    return out


def operating_point_sweep(scores, labels, target_fpr):
    """Smallest threshold with false-positive rate <= target, by scanning
    every observed score value plus a reject-everything sentinel."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels).astype(bool).ravel()
    flat = scores.ravel()
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    cands = sorted(set(flat.tolist()))
    cands.append(float(np.nextafter(max(cands), np.inf)))
    chosen = None
    for t in cands:
        fp = int(((flat >= t) & ~pos).sum())
        fpr = fp / n_neg if n_neg else 0.0
        if fpr <= target_fpr:
            chosen = (float(t), fpr)
            break
    t, fpr = chosen
    tp = int(((flat >= t) & pos).sum())
    tpr = tp / n_pos if n_pos else 0.0
    abstain = int((scores.max(axis=1) < t).sum()) / scores.shape[0]
    return t, tpr, fpr, abstain


def compositions(total, parts, lo, hi):
    """All tuples of length `parts` with entries in [lo, hi] summing to total."""
    if parts == 1:
        return [(total,)] if lo <= total <= hi else []
    out = []
    for first in range(lo, hi + 1):
        for rest in compositions(total - first, parts - 1, lo, hi):
            out.append((first,) + rest)
    return out


RECORD_KINDS = ("a", "m", "t", "rm", "rv", "rc")
SERVED_KINDS = ("a", "rm", "rv", "rc")  # the record kinds inference reads


def prefix_digest(graph, store, index, kinds=RECORD_KINDS):
    """sha256 hex of the store's records of the given kinds owned by the
    nodes before index, node by node in graph order and by record name
    within a node, each as its name then its bytes: arrays and momentum as
    their float32 bytes in store order, a trainable flag as one float32 0
    or 1, running mean and variance as float32 and a count as one int64."""
    digest = hashlib.sha256()
    for node in graph.nodes[:index]:
        records = {}
        for prefix, values in (("a", store.arrays), ("m", store.momentum),
                               ("t", store.trainable)):
            for name, value in values.items():
                if name.rpartition("/")[0] == node.name:
                    records[f"{prefix}/{name}"] = np.float32(value).tobytes() \
                        if prefix == "t" else value.tobytes()
        if node.name in store.running:
            rs = store.running[node.name]
            records[f"rm/{node.name}"] = rs.mean.tobytes()
            records[f"rv/{node.name}"] = rs.var.tobytes()
            records[f"rc/{node.name}"] = np.int64(rs.count).tobytes()
        for rname in sorted(records):
            if rname.partition("/")[0] in kinds:
                digest.update(rname.encode() + records[rname])
    return digest.hexdigest()
