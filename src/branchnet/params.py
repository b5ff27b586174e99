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

A parameter whose kind stores it in an order of its own (param_axes:
conv weights, (k, k, in, out) in the store) is written in the
checkpoint's (out, in, k, k) order. The writer and the reader each
permute it through one scratch buffer that serves every such record;
fill draws each fresh weight in checkpoint
order and lays it out as the reader does (_store_order). No other module
applies the checkpoint's order.

The magic and the trailing checksum are the frame that tensor containers
share, written and checked by common.write_framed and common.read_framed;
this module reads and writes only the body between them. write_checkpoint
and read_checkpoint stream it one record at a time, so neither holds the
file: the reader allocates each record's final array and reads into it,
and a load peaks at the store it returns plus the largest record.
checkpoint_bytes, save_checkpoint, parse_checkpoint and load_checkpoint
wrap them over bytes (io.BytesIO) or a path. A checksum mismatch takes
precedence over every other error after the magic: when the body fails
to parse, the frame's reader hashes the rest of the file first and
reports a corrupt file as such.

A checkpoint may hold a partial record set declared by a start node, as a
bundle's head file does: no record owned by a node before start, and
every record the completeness rules ask for from start on. The writer and
the reader take the same start.

fill gives a store every array and running statistic of a graph that it
lacks: a trunk's whole store (train.init_params), or a branch's layers
from the branch on (train.make_branch, after share_prefix).

RECORD_TABLE states each record kind once, keyed by its name's prefix.
store_records names a store's state through it, the writer adds a zero
"m/" record for each parameter without momentum when any has one, and
read_checkpoint reads the records back in one pass. Records are written
sorted by name, so a checkpoint for given contents is byte-identical
across runs. A record set the table does not allow, a repeated record, a
record of the wrong size or one whose name or data runs past the
checksum (each length is checked against the bytes left before anything
is allocated), or a value outside its kind's rule is a ValueError naming
the record or its offset. The graph text is read by GraphSpec.parse, so a
graph that breaks a graph rule (see GraphSpec) is a ValueError naming its
node before any record is read.

A store's prefix, its records owned by the nodes before a branch index,
is named, hashed and compared here and nowhere else. prefix_records names
it. prefix_digests is the one sha256 walk over records, node by node in
graph order, and gives both digests: frozen_checksum is the walk over
every record of a prefix, and a bundle's prefix digest (multihead) the
walk over the trunk's served_records. share_prefix makes every check (a
prefix the store already holds must be the trunk's bit for bit, and the
trunk must hold each frozen batchnorm's running statistics) before it
points the store at the trunk's objects.
"""

import hashlib
import io
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .common import Frame, derive_rng, read_framed, write_framed
from .graph import NODE_KINDS, GraphSpec, head

CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1
PARAMETER, BATCHNORM = "parameter", "batchnorm node"  # record owners
NEEDED = "every parameter needs its array and trainable flag"
RUNNING = "running statistics cover every batchnorm node or none"
COUNT_LIMIT = 2 ** 24  # every count up to it survives the float32 write


def param_shapes(graph: GraphSpec) -> dict:
    """Parameter name -> shape, derived from node attributes."""
    return {f"{node.name}/{suffix}": shape
            for node in graph.nodes
            for suffix, shape in NODE_KINDS[node.kind].params(node.attrs).items()}


def param_axes(graph: GraphSpec) -> dict:
    """Parameter name -> axes, for each parameter whose kind stores it in
    an order of its own (graph.NodeKind.stored): the store holds the
    checkpoint's array transposed by axes."""
    return {f"{node.name}/{suffix}": axes for node in graph.nodes
            for suffix, axes in NODE_KINDS[node.kind].stored.items()}


def _store_order(flat, shape, axes):
    """flat, a value's elements in checkpoint order, as the store's array
    of shape: the checkpoint's array transposed by axes, or reshaped when
    axes is None (a value stored in checkpoint order). A view of flat."""
    if axes is None:
        return flat.reshape(shape)
    return flat.reshape([shape[i] for i in np.argsort(axes)]).transpose(axes)


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


@dataclass(frozen=True)
class RecordKind:
    """One kind of record, keyed in RECORD_TABLE by its name's prefix."""

    owner: str  # PARAMETER or BATCHNORM: what the rest of the name names
    slot: str  # the ParamStore dict or RunningStats field its value fills
    dtype: type | None  # one value, written as dtype, or None: one per owner element
    rule: str  # "finite", "variance" (also >= 0), "flag" (0 or 1) or "count" (>= 0)
    served: bool  # whether inference reads it
    cover: str  # the completeness rule of the kinds that share it
    optional: bool = True  # whether those kinds may all be absent

    def values(self, store: ParamStore) -> dict:
        """Owner name -> this kind's value in store."""
        if self.owner == PARAMETER:
            return getattr(store, self.slot)
        return {bn: getattr(rs, self.slot) for bn, rs in store.running.items()}

    def read(self, rname, value):
        """The store value of record rname, whose data is value: its one
        element, or the array in store order; a value the rule forbids is
        a ValueError naming the record."""
        if self.dtype is not None:  # one value: a 0/1 flag or a count >= 0
            v, flag = value[0], self.rule == "flag"
            if not (v in (0.0, 1.0) if flag else v >= 0 and v.is_integer()):
                what = ("a trainable flag of 0 or 1" if flag
                        else "a count >= 0 that is a whole number")
                raise ValueError(f"checkpoint record {rname!r} holds {v}, not {what}")
            return bool(v) if flag else int(v)
        # min and max propagate NaN and hold any inf, with no temporary
        lo, hi = value.min(), value.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"checkpoint record {rname!r} holds a non-finite value")
        if self.rule == "variance" and lo < 0:
            raise ValueError(f"checkpoint record {rname!r} holds a negative variance")
        return value


RECORD_TABLE = {  # owner, slot, dtype, rule, served, cover, optional
    "a": RecordKind(PARAMETER, "arrays", None, "finite", True, NEEDED, False),
    "m": RecordKind(PARAMETER, "momentum", None, "finite", False,
                    "momentum covers every parameter or none"),
    "t": RecordKind(PARAMETER, "trainable", np.float32, "flag", False, NEEDED, False),
    "rm": RecordKind(BATCHNORM, "mean", None, "finite", True, RUNNING),
    "rv": RecordKind(BATCHNORM, "var", None, "variance", True, RUNNING),
    "rc": RecordKind(BATCHNORM, "count", np.int64, "count", True, RUNNING),
}


def record_owner(rname: str) -> str:
    """The node that owns record rname: the batchnorm node it names, or the
    node owning the parameter it names."""
    prefix, _, name = rname.partition("/")
    return name if RECORD_TABLE[prefix].owner == BATCHNORM else param_owner(name)


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
    return {f"{prefix}/{name}": np.asarray(value, kind.dtype).reshape(-1)
            for prefix, kind in RECORD_TABLE.items()
            for name, value in kind.values(store).items()}


def prefix_records(graph: GraphSpec, store: ParamStore, index: int) -> dict:
    """The store's records owned by nodes before index: the batchnorm node
    a record names, or the node owning the parameter it names."""
    return {rname: flat for rname, flat in store_records(store).items()
            if graph.index(record_owner(rname)) < index}


def served_records(store: ParamStore) -> dict:
    """store_records of the kinds inference reads (RecordKind.served)."""
    return {rname: flat for rname, flat in store_records(store).items()
            if RECORD_TABLE[rname.partition("/")[0]].served}


def prefix_digests(graph: GraphSpec, records: dict) -> list:
    """Index i -> sha256 hex digest of the given records owned by nodes
    before index i, for every i up to len(graph.nodes): each record's
    name, then its bytes in store order, node by node in graph order and
    by name within a node. One pass over the records: index i reads the
    running hash as it stands when the pass reaches node i. Over a store's
    prefix_records it is frozen_checksum; over its served_records, a
    bundle's prefix digests."""
    owned = {}
    for rname in sorted(records):
        owned.setdefault(record_owner(rname), []).append(rname)
    digest, digests = hashlib.sha256(), []
    for node in graph.nodes:
        digests.append(digest.hexdigest())
        for rname in owned.get(node.name, ()):
            digest.update(rname.encode())
            digest.update(records[rname])
    return digests + [digest.hexdigest()]


def _same_bits(a, b):
    """Arrays of one shape and dtype that view the same memory, or whose
    bits, read as unsigned integers of the element width, are equal (so
    NaN payloads and -0.0 count)."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return False
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.ctypes.data == b.ctypes.data and a.strides == b.strides:
        return True
    uint = f"u{a.dtype.itemsize}"
    return np.array_equal(np.ascontiguousarray(a).reshape(-1).view(uint),
                          np.ascontiguousarray(b).reshape(-1).view(uint))


def share_prefix(graph: GraphSpec, store: ParamStore, trunk: ParamStore,
                 index: int):
    """Point store's state for nodes before index at trunk's own objects:
    arrays (flagged frozen), momentum where trunk has it, running statistics.
    Every check comes before the first write, so a refused store is left
    as it was. A store that already holds a record before index (a head
    file loaded with its whole prefix) must hold every served one of
    trunk's there bit for bit (_same_bits), and no other; and a frozen
    batchnorm runs in inference mode, so trunk must hold its running
    statistics. A failed check is a ValueError naming the record or the
    batchnorm."""
    mine = prefix_records(graph, store, index)
    theirs = prefix_records(graph, trunk, index) if mine else {}
    for rname in sorted(mine.keys() | theirs.keys()):
        if (RECORD_TABLE[rname.partition("/")[0]].served
                and not _same_bits(mine.get(rname), theirs.get(rname))):
            raise ValueError(f"record {rname!r} does not match the trunk's "
                             f"bit for bit")
    frozen = [bn for bn in batchnorm_nodes(graph) if graph.index(bn) < index]
    for bn in frozen:
        if bn not in trunk.running:
            raise ValueError(f"trunk batchnorm {bn!r} has no running "
                             f"statistics: they are missing, so the "
                             f"frozen prefix cannot run in inference mode")
    for name in frozen_names(graph, index):
        store.arrays[name] = trunk.arrays[name]
        store.trainable[name] = False
        if name in trunk.momentum:
            store.momentum[name] = trunk.momentum[name]
    for bn in frozen:
        store.running[bn] = trunk.running[bn]


def fill(graph: GraphSpec, store: ParamStore, init_std: float, seed: int,
         *tags, donor: ParamStore | None = None) -> ParamStore:
    """Give store every array and running statistic of graph that it
    lacks, trainable and at rest, and return it. Each is a copy of donor's
    when a donor is given; the classifier (graph.head) is always fresh.
    A fresh weight ("w") is N(0, init_std^2), drawn from derive_rng(seed,
    *tags, name) as one flat vector in checkpoint order and laid out in
    store order; batchnorm scales are one, biases and shifts zero, running
    statistics mean zero, variance one and count zero."""
    axes = param_axes(graph)
    classifier = head(graph)[1] if donor is not None else None
    for name, shape in param_shapes(graph).items():
        if name in store.arrays:
            continue
        suffix = name.rpartition("/")[2]
        if donor is not None and param_owner(name) != classifier:
            array = donor.arrays[name].copy()
        elif suffix == "w" and init_std > 0:
            drawn = derive_rng(seed, *tags, name).normal(
                0.0, init_std, size=math.prod(shape))
            array = np.ascontiguousarray(
                _store_order(drawn, shape, axes.get(name)), dtype=np.float32)
        else:
            array = np.full(shape, 1.0 if suffix == "gamma" else 0.0,
                            dtype=np.float32)
        store.arrays[name] = array
        store.momentum[name] = np.zeros(shape, dtype=np.float32)
        store.trainable[name] = True
    for bn in batchnorm_nodes(graph):
        if bn not in store.running:
            ch = graph.node(bn).attrs["ch"]
            rs = donor.running[bn] if donor is not None else ops.RunningStats(
                np.zeros(ch, np.float32), np.ones(ch, np.float32), 0)
            store.running[bn] = ops.RunningStats(rs.mean.copy(), rs.var.copy(),
                                                 rs.count)
    return store


def frozen_checksum(graph: GraphSpec, store: ParamStore, branch_index: int) -> str:
    """prefix_digests over every record of the frozen region, taken at the
    branch index. Unchanged digest before and after fine-tuning certifies
    the freeze."""
    prefix = prefix_records(graph, store, branch_index)
    return prefix_digests(graph, prefix)[branch_index]


def _start_index(graph: GraphSpec, start) -> int:
    """The index of the start node a partial record set begins at: 0 for
    None, and a ValueError naming start when the graph lacks it."""
    if start is None:
        return 0
    if start not in graph:
        raise ValueError(f"checkpoint start node {start!r} names no node")
    return graph.index(start)


def _writable(graph: GraphSpec, store: ParamStore, start) -> int:
    """_start_index, once the store is one write_checkpoint can write: a
    running count above COUNT_LIMIT is a ValueError naming its batchnorm."""
    for bn, rs in store.running.items():
        if rs.count > COUNT_LIMIT:
            raise ValueError(f"batchnorm {bn!r} has a running count of "
                             f"{rs.count}, above the 2^24 a checkpoint holds "
                             f"exactly")
    return _start_index(graph, start)


def write_checkpoint(f, graph: GraphSpec, store: ParamStore, start=None):
    """Write the checkpoint of graph and store to the binary file f, one
    record at a time, through common.write_framed. With start, a node
    name, only the records owned by start and the nodes after it are
    written (the partial record set read_checkpoint accepts with that
    start). Every value is written as float32, so a running count above
    COUNT_LIMIT, which float32 cannot hold exactly, is a ValueError naming
    its batchnorm, raised before anything is written."""
    cut = _writable(graph, store, start)
    write_framed(f, CHECKPOINT_MAGIC, _chunks(graph, store, cut))


def _chunks(graph: GraphSpec, store: ParamStore, cut: int):
    """The checkpoint's chunks after its magic, leaving out the records of
    nodes before index cut; a conv weight's chunk is a scratch buffer that
    the next one reuses."""
    gtext = graph.serialize().encode()
    yield struct.pack("<IQ", CHECKPOINT_VERSION, len(gtext)) + gtext
    records = store_records(store)
    if store.momentum:  # a parameter without a velocity is at rest: zeros
        for name in store.arrays:
            records.setdefault(f"m/{name}", None)
    axes = param_axes(graph)
    # conv weights go back to checkpoint order through one buffer
    scratch = np.empty(max([store.arrays[n].size for n in axes
                            if n in store.arrays], default=0), "<f4")
    for rname in sorted(records):
        if cut and graph.index(record_owner(rname)) < cut:
            continue
        prefix, _, owner = rname.partition("/")
        data = records[rname]
        if data is None:
            data = np.zeros(store.arrays[owner].size, np.float32)
        elif RECORD_TABLE[prefix].dtype is None and owner in axes:
            ordered = data.reshape(store.arrays[owner].shape).transpose(
                np.argsort(axes[owner]))
            data = scratch[:data.size]
            np.copyto(data.reshape(ordered.shape), ordered)
        # a contiguous float32 record is written from the store's own memory
        data = np.ascontiguousarray(data, "<f4").reshape(-1)
        nb = rname.encode()
        yield struct.pack("<I", len(nb)) + nb + struct.pack("<Q", data.size)
        yield data


def checkpoint_bytes(graph: GraphSpec, store: ParamStore, start=None) -> bytes:
    """The checkpoint write_checkpoint writes, as bytes."""
    buf = io.BytesIO()
    write_checkpoint(buf, graph, store, start)
    return buf.getvalue()


def save_checkpoint(path, graph: GraphSpec, store: ParamStore, start=None):
    """Write the checkpoint to path; a refused store leaves path as it was."""
    _writable(graph, store, start)
    with open(path, "wb") as f:
        write_checkpoint(f, graph, store, start)


def load_checkpoint(path, start=None):
    """Read a checkpoint; returns (graph, store). Any structural or
    checksum problem is a ValueError whose message starts with the path."""
    try:
        with open(path, "rb") as f:
            return read_checkpoint(f, start)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_checkpoint(data: bytes, start=None):
    """The (graph, store) of checkpoint bytes, read as read_checkpoint
    reads a file."""
    return read_checkpoint(io.BytesIO(data), start)


def read_checkpoint(f, start=None):
    """Read the checkpoint in the binary file f through common.read_framed;
    returns (graph, store).

    Each record goes once from the file into its final array; a conv
    weight lands in one reusable scratch buffer and is permuted from there
    into store order. With start, a node name, the file holds a partial
    record set: no record owned by a node before start, and every record
    the completeness rules ask for from start on."""
    return read_framed(f, CHECKPOINT_MAGIC, "checkpoint",
                       lambda frame: _read_body(frame, start))


def _read_body(stream: Frame, start):
    version, glen = struct.unpack("<IQ", stream.take(12))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if glen > stream.left:
        raise ValueError(f"checkpoint graph text of {glen} bytes runs past "
                         f"the checksum")
    graph = GraphSpec.parse(stream.take(glen).decode())  # checks every graph rule
    cut = _start_index(graph, start)

    axes = param_axes(graph)
    owners = {PARAMETER: param_shapes(graph),
              BATCHNORM: {bn: (graph.node(bn).attrs["ch"],)
                          for bn in batchnorm_nodes(graph)}}
    wanted = {kind: {name for name in names
                     if graph.index(name if kind == BATCHNORM
                                    else param_owner(name)) >= cut}
              for kind, names in owners.items()}
    # checkpoint-order conv weights land in one buffer
    scratch = np.empty(max([math.prod(owners[PARAMETER][n]) for n in axes
                            if n in wanted[PARAMETER]], default=0), "<f4")
    store, parts = ParamStore(), {}  # parts: RunningStats field -> bn -> value
    slots = {prefix: getattr(store, kind.slot) if kind.owner == PARAMETER
             else parts.setdefault(kind.slot, {})
             for prefix, kind in RECORD_TABLE.items()}
    while stream.left:
        # each length is checked against the bytes left before the checksum
        # (a record needs 12 besides its name and data) before it is used
        off = stream.off
        if stream.left < 12:
            raise ValueError(f"checkpoint record name at offset {off} runs "
                             f"past the checksum ({stream.left} bytes left)")
        (nlen,) = struct.unpack("<I", stream.take(4))
        if nlen > stream.left - 8:
            raise ValueError(f"checkpoint record name at offset {off} runs "
                             f"past the checksum ({nlen} bytes)")
        rname = stream.take(nlen).decode()
        (count,) = struct.unpack("<Q", stream.take(8))
        if count > stream.left // 4:
            raise ValueError(f"checkpoint record {rname!r} runs past the "
                             f"checksum ({count} elements)")
        prefix, _, name = rname.partition("/")
        if prefix not in RECORD_TABLE:
            raise ValueError(f"unknown checkpoint record kind {prefix!r}")
        kind, slot = RECORD_TABLE[prefix], slots[prefix]
        shape = owners[kind.owner].get(name)
        if shape is None:
            raise ValueError(f"checkpoint names unknown {kind.owner} {name!r}")
        if name not in wanted[kind.owner]:
            raise ValueError(f"checkpoint record {rname!r} belongs to a node "
                             f"before its start node {start!r}")
        if name in slot:
            raise ValueError(f"checkpoint repeats record {rname!r}")
        size = math.prod(shape) if kind.dtype is None else 1
        if count != size:
            raise ValueError(f"checkpoint record {rname!r} has {count} "
                             f"elements, graph expects {size}")
        value = np.empty(shape if kind.dtype is None else 1, "<f4")
        if kind.dtype is None and name in axes:  # into store order
            flat = stream.into(scratch[:count])
            np.copyto(value, _store_order(flat, shape, axes[name]))
        else:
            stream.into(value)
        slot[name] = kind.read(rname, value)

    for prefix, kind in RECORD_TABLE.items():  # completeness, on the key sets
        missing = [name for name in owners[kind.owner]
                   if name in wanted[kind.owner] and name not in slots[prefix]]
        if missing and not (kind.optional and not any(
                slots[p] for p, k in RECORD_TABLE.items() if k.cover == kind.cover)):
            raise ValueError(f"checkpoint lacks record "
                             f"{prefix + '/' + missing[0]!r}: {kind.cover}")
    store.running = {bn: ops.RunningStats(**{f: p[bn] for f, p in parts.items()})
                     for bn in owners[BATCHNORM] if bn in parts["count"]}
    return graph, store

