import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from branchnet.common import checksum64
from branchnet.dataio import TENSOR_MAGIC, TENSOR_VERSION
from branchnet.engine import forward_pass
from branchnet.graph import ArchConfig, build_trunk
from branchnet.train import TrainConfig, init_params


@pytest.fixture(scope="session")
def desk_graph():
    return build_trunk(ArchConfig.desk())


@pytest.fixture()
def desk_store(desk_graph):
    return init_params(desk_graph, TrainConfig.desk(seed=7))


@pytest.fixture()
def warm_desk_store(desk_graph, desk_store):
    """Store with batchnorm running statistics seeded by one train batch."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 1, 56, 56)).astype(np.float32)
    _, updates = forward_pass(desk_graph, desk_store, x, mode="train")
    desk_store.running.update(updates)
    return desk_store


def desk_inputs(rng, n):
    return rng.standard_normal((n, 1, 56, 56)).astype(np.float32)


def write_unchecked_tensor(path, arr):
    """Write arr's tensor container built by hand, as a foreign writer
    could, without write_tensor's refusal of non-finite values."""
    arr = np.asarray(arr, dtype="<f4")
    body = (TENSOR_MAGIC + struct.pack("<BB", TENSOR_VERSION, arr.ndim)
            + b"".join(struct.pack("<I", d) for d in arr.shape) + arr.tobytes())
    with open(path, "wb") as f:
        f.write(body + checksum64(body))


def to_nhwc(x):
    """An (n, c, h, w) array in the engine's (n, h, w, c) layout."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def to_nchw(a):
    """An engine-layout (n, h, w, c) array viewed as (n, c, h, w)."""
    return a.transpose(0, 3, 1, 2)


def to_store_weights(w):
    """An (out, in, k, k) conv weight in the store's (k, k, in, out) order."""
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0))


def to_checkpoint_weights(w):
    """A store-order (k, k, in, out) conv weight viewed as (out, in, k, k)."""
    return w.transpose(3, 2, 0, 1)


def graph_token_edits(text):
    """Hypothesis strategy over one or two edits of a graph text: each
    replaces one whitespace token (line, token index taken modulo the
    line's length) with a token of the same text, or deletes it ("")."""
    lines = text.splitlines()
    vocab = sorted({tok for line in lines for tok in line.split()}) + [""]
    edit = st.tuples(st.integers(0, len(lines) - 1), st.integers(0, 9),
                     st.sampled_from(vocab))
    return st.lists(edit, min_size=1, max_size=2)


def apply_token_edits(text, edits):
    lines = [line.split() for line in text.splitlines()]
    for row, col, token in edits:
        lines[row][col % len(lines[row])] = token
    return "".join(" ".join(t for t in tokens if t) + "\n" for tokens in lines)
