"""Parameter storage and the checkpoint wire format.

A ParamStore keeps four aligned dicts:
  arrays     parameter name -> float32 ndarray
  momentum   parameter name -> float32 ndarray (velocity, same shape)
  trainable  parameter name -> bool
  running    batchnorm node name -> ops.RunningStats

Parameter names are "{node}/w", "{node}/b", "{node}/gamma", "{node}/beta".

Checkpoint layout (all integers little-endian):
  magic "CKPT", u32 version 1,
  u64 graph text length, graph text (utf-8),
  records until 8 bytes remain, each:
      u32 name length, name (utf-8), u64 element count, float32 data
  trailing 8-byte checksum (sha256 prefix) over every preceding byte.

Record names carry a kind prefix: "a/" array, "m/" momentum, "t/" trainable
flag (one element, 0 or 1), "rm/" running mean, "rv/" running variance,
"rc/" running count (one element). Records are written sorted by name, so a
checkpoint for given contents is byte-identical across runs.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .common import checksum64
from .graph import NODE_KINDS, GraphSpec, compute_shapes

CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1


def param_shapes(graph: GraphSpec) -> dict:
    """Parameter name -> shape, derived from node attributes."""
    return {f"{node.name}/{suffix}": shape
            for node in graph.nodes
            for suffix, shape in NODE_KINDS[node.kind].params(node.attrs).items()}


def batchnorm_nodes(graph: GraphSpec):
    return tuple(n.name for n in graph.nodes if n.kind == "batchnorm")


def param_owner(name: str) -> str:
    """Node that owns a parameter name like "conv4/w"."""
    node, sep, _ = name.rpartition("/")
    if not sep:
        raise ValueError(f"malformed parameter name {name!r}")
    return node


@dataclass
class ParamStore:
    arrays: dict = field(default_factory=dict)
    momentum: dict = field(default_factory=dict)
    trainable: dict = field(default_factory=dict)
    running: dict = field(default_factory=dict)

    def copy(self):
        return ParamStore(
            arrays={k: v.copy() for k, v in self.arrays.items()},
            momentum={k: v.copy() for k, v in self.momentum.items()},
            trainable=dict(self.trainable),
            running={k: ops.RunningStats(v.mean.copy(), v.var.copy(), v.count)
                     for k, v in self.running.items()},
        )

    def param_count(self, names=None):
        names = self.arrays if names is None else names
        return sum(self.arrays[n].size for n in names)


def frozen_names(graph: GraphSpec, branch_index: int):
    """Parameter names owned by nodes strictly before the branch index."""
    shapes = param_shapes(graph)
    out = []
    for name in shapes:
        if graph.index(param_owner(name)) < branch_index:
            out.append(name)
    return tuple(sorted(out))


def frozen_checksum(graph: GraphSpec, store: ParamStore, branch_index: int) -> str:
    """Digest of everything the frozen region owns: parameter values, their
    momentum buffers, and running statistics of frozen batchnorm nodes.
    Unchanged digest before and after fine-tuning certifies the freeze."""
    h_parts = []
    for name in frozen_names(graph, branch_index):
        h_parts.append(name.encode())
        h_parts.append(np.ascontiguousarray(store.arrays[name]).tobytes())
        if name in store.momentum:
            h_parts.append(np.ascontiguousarray(store.momentum[name]).tobytes())
    for bn in batchnorm_nodes(graph):
        if graph.index(bn) < branch_index and bn in store.running:
            rs = store.running[bn]
            h_parts.append(bn.encode())
            h_parts.append(np.ascontiguousarray(rs.mean).tobytes())
            h_parts.append(np.ascontiguousarray(rs.var).tobytes())
            h_parts.append(struct.pack("<q", rs.count))
    import hashlib

    return hashlib.sha256(b"".join(h_parts)).hexdigest()


def _records_from_store(store: ParamStore):
    records = {}
    for name, arr in store.arrays.items():
        records["a/" + name] = np.asarray(arr, dtype=np.float32).ravel()
    for name, arr in store.momentum.items():
        records["m/" + name] = np.asarray(arr, dtype=np.float32).ravel()
    for name, flag in store.trainable.items():
        records["t/" + name] = np.asarray([1.0 if flag else 0.0], dtype=np.float32)
    for bn, rs in store.running.items():
        records["rm/" + bn] = np.asarray(rs.mean, dtype=np.float32).ravel()
        records["rv/" + bn] = np.asarray(rs.var, dtype=np.float32).ravel()
        records["rc/" + bn] = np.asarray([float(rs.count)], dtype=np.float32)
    return records


def checkpoint_bytes(graph: GraphSpec, store: ParamStore) -> bytes:
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    gtext = graph.serialize().encode()
    chunks.append(struct.pack("<Q", len(gtext)))
    chunks.append(gtext)
    records = _records_from_store(store)
    for name in sorted(records):
        data = records[name]
        nb = name.encode()
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<Q", data.size))
        chunks.append(data.astype("<f4").tobytes())
    body = b"".join(chunks)
    return body + checksum64(body)


def save_checkpoint(path, graph: GraphSpec, store: ParamStore):
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(graph, store))


def load_checkpoint(path):
    """Read a checkpoint; returns (graph, store). Raises ValueError on any
    structural or checksum problem."""
    with open(path, "rb") as f:
        data = f.read()
    return parse_checkpoint(data)


def parse_checkpoint(data: bytes):
    if len(data) < 24 or data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    if checksum64(data[:-8]) != data[-8:]:
        raise ValueError("checkpoint checksum mismatch; file is corrupt")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off = 8
    (glen,) = struct.unpack_from("<Q", data, off)
    off += 8
    graph = GraphSpec.parse(data[off:off + glen].decode())
    compute_shapes(graph)  # a graph that cannot run fails here, naming the node
    off += glen
    end = len(data) - 8

    records = {}
    while off < end:
        (nlen,) = struct.unpack_from("<I", data, off)
        off += 4
        name = data[off:off + nlen].decode()
        off += nlen
        (count,) = struct.unpack_from("<Q", data, off)
        off += 8
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=off).copy()
        off += 4 * count
        if off > end:
            raise ValueError(f"checkpoint record {name!r} overruns the file")
        records[name] = arr

    shapes = param_shapes(graph)
    store = ParamStore()
    for rname, flat in records.items():
        kind, _, name = rname.partition("/")
        if kind in ("a", "m"):
            if name not in shapes:
                raise ValueError(f"checkpoint names unknown parameter {name!r}")
            if flat.size != int(np.prod(shapes[name])):
                raise ValueError(
                    f"checkpoint parameter {name!r} has {flat.size} elements, "
                    f"graph expects shape {shapes[name]}")
            target = store.arrays if kind == "a" else store.momentum
            target[name] = flat.reshape(shapes[name])
        elif kind == "t":
            store.trainable[name] = bool(flat[0])
        elif kind in ("rm", "rv", "rc"):
            pass  # assembled below once all three parts are present
        else:
            raise ValueError(f"unknown checkpoint record kind {kind!r}")
    for bn in batchnorm_nodes(graph):
        mk, vk, ck = "rm/" + bn, "rv/" + bn, "rc/" + bn
        if mk in records or vk in records or ck in records:
            if not (mk in records and vk in records and ck in records):
                raise ValueError(f"incomplete running statistics for {bn!r}")
            store.running[bn] = ops.RunningStats(
                records[mk], records[vk], int(records[ck][0]))
    return graph, store
