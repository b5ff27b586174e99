"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops,
brute-force sweeps) so that a disagreement points at the production code
rather than at a shared helper.
"""

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
    """im2col over an np.pad copy: the bitwise reference for _im2col."""
    n, c = x.shape[:2]
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, k, k, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    return np.ascontiguousarray(windows).reshape(n, c * k * k, oh * ow)


def conv2d_backward_nchw(x, w, b, gy, stride, padding):
    """(input, weight, bias) gradients of a convolution, its column gradient
    scattered over NCHW slices, one strided += per kernel position: the
    bitwise reference for conv2d_backward's channels-last scatter."""
    n, c, h, wd = x.shape
    c_out, _, k, _ = w.shape
    oh, ow = gy.shape[2:]
    cols = im2col_np_pad(x, k, stride, padding, oh, ow)
    g = gy.reshape(n, c_out, oh * ow)
    gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    g6 = np.matmul(w.reshape(c_out, -1).T, g).reshape(n, c, k, k, oh, ow)
    gx = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, i, j]
    return gx[:, :, padding:padding + h, padding:padding + wd], gw, gy.sum(axis=(0, 2, 3))


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
