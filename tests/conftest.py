import hashlib
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from branchnet.dataio import TENSOR_MAGIC, TENSOR_VERSION
from branchnet.engine import forward_pass
from branchnet.config import format_records
from branchnet.graph import ArchConfig, GraphSpec, build_trunk
from branchnet.params import (ParamStore, prefix_digests, save_checkpoint,
                              served_records)
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


def checksum64(*chunks) -> bytes:
    """The 8-byte checksum that ends a tensor container or checkpoint whose
    bytes before it are the chunks (bytes-like) joined: the first 8 bytes
    of their SHA-256. Tests use it to re-seal an edited body."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()[:8]


def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw) of fn(*args)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def graph_column_edits(text):
    """Hypothesis strategy over one or two edits of a graph text, each
    replacing one whitespace token with another token of the same text
    from its column, or deleting it (""): a node name for a node name, a
    kind for a kind, and a key=value token for one of the same key
    (inputs= too)."""
    lines = [line.split() for line in text.splitlines()]

    def column(row, col):
        key, sep, _ = lines[row][col].partition("=")
        return key if sep else (min(row, 1), col)  # the header's "graph" alone

    columns = {}
    for row, tokens in enumerate(lines):
        for col, token in enumerate(tokens):
            columns.setdefault(column(row, col), set()).add(token)
    spots = [(row, col) for row, tokens in enumerate(lines)
             for col in range(len(tokens))]

    def edit(spot):
        row, col = spot
        others = sorted(columns[column(row, col)] - {lines[row][col]})
        return st.tuples(st.just(row), st.just(col), st.sampled_from(others + [""]))

    return st.lists(st.sampled_from(spots).flatmap(edit), min_size=1, max_size=2)


def apply_token_edits(text, edits):
    lines = [line.split() for line in text.splitlines()]
    for row, col, token in edits:
        lines[row][col % len(lines[row])] = token
    return "".join(" ".join(t for t in tokens if t) + "\n" for tokens in lines)



def edited_text(graph, *edits):
    """graph's text with each (old, new) of edits replaced in turn; each
    old occurs once."""
    text = graph.serialize()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def retext(graph, *edits):
    """graph parsed back from edited_text(graph, *edits)."""
    return GraphSpec.parse(edited_text(graph, *edits))


def fc_line(graph):
    """The line of a build_trunk graph's text that declares its classifier."""
    fc = graph.node("fc").attrs
    return f"\nfc fc in={fc['in']} out={fc['out']} inputs=relu320\n"


def named_cls(graph, store):
    """A build_trunk graph and a copy of its store with the classifier node,
    and its branch point, named cls instead of fc, as other graph text
    could name it."""
    line = fc_line(graph)
    graph = retext(graph, (line, line.replace("fc fc", "cls fc")),
                   ("inputs=fc\n", "inputs=cls\n"), (",fc\n", ",cls\n"))
    store = store.copy()
    for table in (store.arrays, store.momentum, store.trainable):
        for suffix in ("w", "b"):
            table[f"cls/{suffix}"] = table.pop(f"fc/{suffix}")
    return graph, store


def two_fc(graph):
    """A build_trunk graph with a hidden fc0 of 40 outputs before its
    classifier."""
    fc = graph.node("fc").attrs
    return retext(graph, (fc_line(graph),
                          f"\nfc0 fc in={fc['in']} out=40 inputs=relu320\n"
                          f"fc fc in=40 out={fc['out']} inputs=fc0\n"))


def head_on_relu320(graph):
    """The text of a build_trunk graph without its classifier: the head
    reads relu320, an (80, 1, 1) activation at desk scale, so no GraphSpec
    holds it."""
    return edited_text(graph, (fc_line(graph), "\n"),
                       ("inputs=fc\n", "inputs=relu320\n"), (",fc\n", "\n"))


def head_on_relu_over_fc(graph):
    """A build_trunk graph whose head reads fc_relu, a relu over its fc:
    logits of the classifier's width from a node that is not an fc."""
    return retext(graph, ("\nsoftmax softmax-head inputs=fc\n",
                          "\nfc_relu relu inputs=fc\n"
                          "softmax softmax-head inputs=fc_relu\n"))


def split_records(data):
    """(head bytes, [(record name, record bytes)]) of a checkpoint."""
    (glen,) = struct.unpack_from("<Q", data, 8)
    off = 16 + glen
    head, records = data[:off], []
    while off < len(data) - 8:
        (nlen,) = struct.unpack_from("<I", data, off)
        (count,) = struct.unpack_from("<Q", data, off + 4 + nlen)
        end = off + 12 + nlen + 4 * count
        records.append((data[off + 4:off + 4 + nlen].decode(), data[off:end]))
        off = end
    return head, records


def seal(head, records):
    body = head + b"".join(raw for _, raw in records)
    return body + checksum64(body)


def with_graph_text(data, text):
    """The weights of checkpoint data under graph text, re-sealed."""
    head, records = split_records(data)
    head = head[:8] + struct.pack("<Q", len(text)) + text.encode()
    return seal(head, [r for r in records if not r[0].startswith("m/")])


def branch_digests(graph, store):
    """The store's served prefix digest at each branch point, by name: the
    digest save_bundle writes on a head's heads.txt line."""
    digests = prefix_digests(graph, served_records(store))
    return {layer: digests[graph.index(layer)] for layer in graph.branch_points}


def save_full_prefix_bundle(dirpath, model):
    """model written as a bundle was before head files held only their
    suffix: weights-only checkpoints, each head file with its whole prefix,
    and heads.txt lines of 4 fields, no prefix digest."""
    def weights(store):
        return ParamStore(store.arrays, {}, store.trainable, store.running)
    os.makedirs(dirpath, exist_ok=True)
    save_checkpoint(os.path.join(dirpath, "trunk.ckpt"), model.trunk_graph,
                    weights(model.trunk_store))
    heads = sorted(model.heads, key=lambda h: h.spec.task)
    for head in heads:
        save_checkpoint(os.path.join(dirpath, f"{head.spec.task}.ckpt"),
                        head.graph, weights(head.store))
    with open(os.path.join(dirpath, "heads.txt"), "w") as f:
        f.write(format_records([replace(h.spec, prefix_sha256="")
                                for h in heads]))
