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

A checkpoint that loads is complete: every parameter has its "a/" and "t/"
records, "m/" records cover every parameter or none, and running
statistics cover every batchnorm node or none. Every value of an "a/",
"m/", "rm/" or "rv/" record is finite, and no "rv/" value is negative.
Every "t/" value is exactly 0 or 1. Any other record set, a record of the
wrong size or one whose name or data runs past the checksum, or a value
outside these bounds raises ValueError naming the record or its offset.
"""

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .common import checksum64
from .graph import NODE_KINDS, GraphSpec, compute_shapes

CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1
RECORD_KINDS = ("a", "m", "t", "rm", "rv", "rc")
FINITE_KINDS = ("a", "m", "rm", "rv")  # whose every value must be finite


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
    end = len(data) - 8
    (glen,) = struct.unpack_from("<Q", data, 8)
    off = 16
    if glen > end - off:
        raise ValueError(f"checkpoint graph text of {glen} bytes runs past "
                         f"the checksum")
    graph = GraphSpec.parse(data[off:off + glen].decode())
    compute_shapes(graph)  # a graph that cannot run fails here, naming the node
    off += glen

    records = {}
    while off < end:
        # each length is checked against the bytes left before the checksum
        # (a record needs 12 besides its name and data) before it is used
        (nlen,) = struct.unpack_from("<I", data, off)
        if nlen > end - off - 12:
            raise ValueError(f"checkpoint record name at offset {off} runs "
                             f"past the checksum ({nlen} bytes)")
        name = data[off + 4:off + 4 + nlen].decode()
        off += 4 + nlen
        (count,) = struct.unpack_from("<Q", data, off)
        off += 8
        if count > (end - off) // 4:
            raise ValueError(f"checkpoint record {name!r} runs past the "
                             f"checksum ({count} elements)")
        records[name] = np.frombuffer(data, dtype="<f4", count=count,
                                      offset=off).copy()
        off += 4 * count

    shapes = param_shapes(graph)
    bns = batchnorm_nodes(graph)
    sizes = {}
    for name, shape in shapes.items():
        sizes["a/" + name] = sizes["m/" + name] = math.prod(shape)
        sizes["t/" + name] = 1
    for bn in bns:
        sizes["rm/" + bn] = sizes["rv/" + bn] = graph.node(bn).attrs["ch"]
        sizes["rc/" + bn] = 1
    for rname, flat in records.items():
        kind, _, name = rname.partition("/")
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown checkpoint record kind {kind!r}")
        if rname not in sizes:
            owner = "batchnorm node" if kind.startswith("r") else "parameter"
            raise ValueError(f"checkpoint names unknown {owner} {name!r}")
        if flat.size != sizes[rname]:
            raise ValueError(f"checkpoint record {rname!r} has {flat.size} "
                             f"elements, graph expects {sizes[rname]}")
        if kind in FINITE_KINDS:
            # min and max propagate NaN and hold any inf, with no temporary
            lo, hi = flat.min(), flat.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"checkpoint record {rname!r} holds a non-finite value")
            if kind == "rv" and lo < 0:
                raise ValueError(f"checkpoint record {rname!r} holds a negative variance")
        if kind == "t" and flat[0] not in (0.0, 1.0):
            raise ValueError(f"checkpoint record {rname!r} holds {flat[0]}, "
                             f"not a trainable flag of 0 or 1")
    _require_records(records, [k + n for k in ("a/", "t/") for n in shapes],
                     "every parameter needs its array and trainable flag",
                     all_or_none=False)
    _require_records(records, ["m/" + n for n in shapes],
                     "momentum covers every parameter or none")
    _require_records(records, [k + bn for bn in bns for k in ("rm/", "rv/", "rc/")],
                     "running statistics cover every batchnorm node or none")

    store = ParamStore()
    for name in sorted(shapes):
        store.arrays[name] = records["a/" + name].reshape(shapes[name])
        store.trainable[name] = bool(records["t/" + name][0])
        if "m/" + name in records:
            store.momentum[name] = records["m/" + name].reshape(shapes[name])
    for bn in bns:
        if "rc/" + bn in records:
            count = records["rc/" + bn][0]
            if not (np.isfinite(count) and count >= 0):
                raise ValueError(f"checkpoint record {'rc/' + bn!r} holds "
                                 f"{count}, not a count >= 0")
            store.running[bn] = ops.RunningStats(
                records["rm/" + bn], records["rv/" + bn], int(count))
    return graph, store


def _require_records(records, names, rule, all_or_none=True):
    """Raise naming the first of names the records lack, unless they hold
    all of them (or, when all_or_none, none of them)."""
    missing = [n for n in names if n not in records]
    if missing and not (all_or_none and len(missing) == len(names)):
        raise ValueError(f"checkpoint lacks record {missing[0]!r}: {rule}")
