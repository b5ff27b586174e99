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

store_records names a store's state as records, each with a kind prefix:
"a/" array, "m/" momentum, "t/" trainable flag (one element, 0 or 1), "rm/"
running mean, "rv/" running variance, "rc/" running count (one element).
A store with any momentum is written with a zero "m/" record for each
parameter without one. Records are written sorted by name, so a checkpoint
for given contents is byte-identical across runs.

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
SERVED = ("a/", "rm/", "rv/", "rc/")  # record prefixes inference reads


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


def store_records(store: ParamStore) -> dict:
    """Record name -> that value's flat array, a view of the store's own in
    its native dtype; "t/" is a float32 flag and "rc/" an int64 count."""
    records = {}
    for kind, values in (("a", store.arrays), ("m", store.momentum)):
        for name, arr in values.items():
            records[f"{kind}/{name}"] = arr.reshape(-1)
    for name, flag in store.trainable.items():
        records["t/" + name] = np.array([flag], dtype=np.float32)
    for bn, rs in store.running.items():
        records["rm/" + bn] = rs.mean.reshape(-1)
        records["rv/" + bn] = rs.var.reshape(-1)
        records["rc/" + bn] = np.array([rs.count], dtype=np.int64)
    return records


def prefix_records(graph: GraphSpec, store: ParamStore, index: int) -> dict:
    """The store's records owned by nodes before index: the node an "r*"
    record names, or the one owning the parameter another names."""
    def owner(rname):
        kind, _, name = rname.partition("/")
        return name if kind.startswith("r") else param_owner(name)
    return {rname: flat for rname, flat in store_records(store).items()
            if graph.index(owner(rname)) < index}


def share_prefix(graph: GraphSpec, store: ParamStore, trunk: ParamStore,
                 index: int):
    """Point store's state for nodes before index at trunk's own objects:
    arrays (flagged frozen), momentum where trunk has it, running statistics.
    A frozen batchnorm runs in inference mode, so a trunk without running
    statistics for one is a ValueError naming it."""
    for name in frozen_names(graph, index):
        store.arrays[name] = trunk.arrays[name]
        store.trainable[name] = False
        if name in trunk.momentum:
            store.momentum[name] = trunk.momentum[name]
    for bn in batchnorm_nodes(graph):
        if graph.index(bn) < index:
            if bn not in trunk.running:
                raise ValueError(f"trunk batchnorm {bn!r} has no running "
                                 f"statistics: they are missing, so the "
                                 f"frozen prefix cannot run in inference mode")
            store.running[bn] = trunk.running[bn]


def frozen_checksum(graph: GraphSpec, store: ParamStore, branch_index: int) -> str:
    """sha256 over the frozen region's records, each as its name then its
    bytes, in name order. Unchanged digest before and after fine-tuning
    certifies the freeze."""
    digest = hashlib.sha256()
    for rname, flat in sorted(prefix_records(graph, store, branch_index).items()):
        digest.update(rname.encode())
        digest.update(flat.tobytes())
    return digest.hexdigest()


def checkpoint_bytes(graph: GraphSpec, store: ParamStore) -> bytes:
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    gtext = graph.serialize().encode()
    chunks.append(struct.pack("<Q", len(gtext)))
    chunks.append(gtext)
    records = store_records(store)
    if store.momentum:  # a parameter without a velocity is at rest
        for name, arr in store.arrays.items():
            records.setdefault("m/" + name, np.zeros(arr.size, np.float32))
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
