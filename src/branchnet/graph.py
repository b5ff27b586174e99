"""Network structure: node kinds, architecture configs, the trunk builder,
serialization.

A GraphSpec is an ordered list of LayerNodes wired by name. The reserved
upstream name "input" refers to the network input; no node may use it.
Node evaluation order is the list order, which is a topological order by
construction.

Everything a node kind means is defined once, in its NODE_KINDS record:
the integer attributes it requires, the parameters it owns, its output
shape, its cost, and its forward and backward passes. The engine, the
accounting and the parameter store are loops over that table.

Canonical trunk naming: the stem convolution is conv1, block i contributes
conv{2i} (the 1x1) and conv{2i+1} (the 3x3), shortcut projections are
shortcut{i} and excluded from the numbering, and the post-pool bottleneck
is conv-bn320 (the 24th convolution at the canonical depth). Branch points
are the intersection of {conv17, conv19, conv21, conv22, conv-bn320, fc}
with the nodes present.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

from . import ops
from .config import fields_from_mapping, fields_to_mapping

BRANCH_POINT_NAMES = ("conv17", "conv19", "conv21", "conv22", "conv-bn320", "fc")
INPUT_NAME = "input"

# Committed resolver output (see reports/arch_resolution.txt): the unique
# top-ranked stage composition under the hard constraints, tie-broken by
# lexicographic order per the deterministic ranking rule.
CANONICAL_STAGE_REPEATS = (1, 1, 5, 4)
CANONICAL_STAGE_CHANNELS = ((32, 64), (64, 128), (128, 256), (256, 512))


@dataclass(frozen=True, kw_only=True)
class NodeKind:
    """What one node kind means, in terms of its attribute dict `a`.

    required  integer attributes every node of the kind carries, each >= 1
              except "pad", which is >= 0
    optional  attribute -> AttrType of the attributes a node may carry
    arity     number of inputs every node of the kind reads
    params    a -> {suffix: shape} of the parameters the node owns
    shape     (a, input shapes) -> per-sample output shape; raises
              ValueError (without the node name) on inconsistent inputs
    cost      (a, input shapes, output shape) -> (multiply-accumulates, or
              None for element-wise kinds, {aux key: element count})
    forward   (a, params, inputs, running, mode) -> (output, new running
              statistics or None, saved context or None); mode is the
              node's own "train"/"infer"
    backward  (a, params, inputs, output grad, saved context or None,
              need) -> (one gradient per input, {suffix: parameter
              gradient}); None where the kind cannot be differentiated.
              need holds one bool per input: whether anyone reads that
              input's gradient. A kind may return None in place of a
              gradient that is not needed (conv and fc do, and skip its
              matrix product and scatter); the other kinds compute it
              anyway, and the engine drops it

    The saved context is what a forward keeps for its own backward so the
    backward need not recompute it. Only a train-mode batchnorm keeps one:
    its per-channel batch mean and std (ops.BatchStats), a few KB. An
    inference-mode forward keeps nothing, and every backward accepts None
    and then recomputes what it needs from its inputs, to the same bits.
    """

    required: tuple = ()
    optional: dict = field(default_factory=dict)
    arity: int = 1
    params: Callable = lambda a: {}
    shape: Callable = lambda a, ins: ins[0]
    cost: Callable
    forward: Callable
    backward: Callable | None = None


@dataclass(frozen=True)
class AttrType:
    """What an optional attribute's value must be: `what` says it in words
    and `accepts` checks it."""

    what: str
    accepts: Callable


FLAG = AttrType("0 or 1", lambda v: isinstance(v, int) and v in (0, 1))
POSITIVE = AttrType("a positive finite number", lambda v: (
    isinstance(v, (int, float)) and not isinstance(v, bool)
    and math.isfinite(v) and v > 0))


def _elementwise(key):
    return lambda a, ins, out: (None, {key: math.prod(out)})


def _unary(fn):
    return lambda a, p, ins, running, mode: (fn(ins[0]), None, None)


def _unary_backward(fn):
    return lambda a, p, ins, gy, saved, need: ((fn(ins[0], gy),), {})


def _grads(lg):
    return (lg.input_grad,), lg.param_grads


def _conv_params(a):
    shapes = {"w": (a["out"], a["in"], a["k"], a["k"])}
    if a.get("bias"):
        shapes["b"] = (a["out"],)
    return shapes


def _check_channels(a, key, shape):
    if a[key] != shape[0]:
        raise ValueError(f"declares {key}={a[key]} but its input has "
                         f"{shape[0]} channels")


def _conv_shape(a, ins):
    _check_channels(a, "in", ins[0])
    c, h, w = ins[0]
    oh = ops.conv_output_size(h, a["k"], a["stride"], a["pad"])
    ow = ops.conv_output_size(w, a["k"], a["stride"], a["pad"])
    if oh < 1 or ow < 1:
        raise ValueError(f"produces empty output {oh}x{ow} from input {h}x{w}")
    return (a["out"], oh, ow)


def _conv_cost(a, ins, out):
    c_out, oh, ow = out
    macs = a["k"] * a["k"] * a["in"] * c_out * oh * ow
    return macs, ({"bias": c_out * oh * ow} if a.get("bias") else {})


def _batchnorm_forward(a, p, ins, running, mode):
    eps = a.get("eps", ops.BN_EPS)
    if mode == "train":
        return ops.batchnorm_train(ins[0], p["gamma"], p["beta"], running, eps)
    out, _ = ops.batchnorm(ins[0], p["gamma"], p["beta"], running=running,
                           mode=mode, eps=eps)
    return out, None, None


def _batchnorm_shape(a, ins):
    _check_channels(a, "ch", ins[0])
    return ins[0]


def _maxpool_shape(a, ins):
    c, h, w = ins[0]
    if h % 2 or w % 2:
        raise ValueError(f"pools odd extents {h}x{w}")
    return (c, h // 2, w // 2)


def _avgpool_shape(a, ins):
    c, h, w = ins[0]
    return (c, 1, 1)


def _add_shape(a, ins):
    if ins[0] != ins[1]:
        raise ValueError(f"adds mismatched shapes {ins[0]} and {ins[1]}")
    return ins[0]


def _fc_shape(a, ins):
    if a["in"] != math.prod(ins[0]):
        raise ValueError(f"declares in={a['in']} but its input {ins[0]} has "
                         f"{math.prod(ins[0])} elements")
    return (a["out"],)


NODE_KINDS = {
    "conv": NodeKind(
        required=("in", "out", "k", "stride", "pad"), optional={"bias": FLAG},
        params=_conv_params,
        shape=_conv_shape, cost=_conv_cost,
        forward=lambda a, p, ins, running, mode: (ops.conv2d_forward(
            ins[0], p["w"], p.get("b"), a["stride"], a["pad"]), None, None),
        backward=lambda a, p, ins, gy, saved, need: _grads(ops.conv2d_backward(
            ins[0], p["w"], p.get("b"), gy, a["stride"], a["pad"], need[0]))),
    "batchnorm": NodeKind(
        required=("ch",), optional={"eps": POSITIVE},
        params=lambda a: {"gamma": (a["ch"],), "beta": (a["ch"],)},
        shape=_batchnorm_shape, cost=_elementwise("batchnorm"),
        forward=_batchnorm_forward,
        backward=lambda a, p, ins, gy, saved, need: _grads(ops.batchnorm_backward(
            ins[0], p["gamma"], p["beta"], gy, eps=a.get("eps", ops.BN_EPS),
            saved=saved))),
    "relu": NodeKind(
        cost=_elementwise("relu"), forward=_unary(ops.relu),
        backward=_unary_backward(ops.relu_backward)),
    "maxpool": NodeKind(
        shape=_maxpool_shape, cost=_elementwise("maxpool"),
        forward=_unary(ops.maxpool2x2),
        backward=_unary_backward(ops.maxpool2x2_backward)),
    "avgpool": NodeKind(
        optional={"global": FLAG}, shape=_avgpool_shape,
        cost=lambda a, ins, out: (None, {"avgpool": math.prod(ins[0])}),
        forward=_unary(ops.avgpool_global),
        backward=_unary_backward(ops.avgpool_global_backward)),
    "add": NodeKind(
        arity=2, shape=_add_shape, cost=_elementwise("add"),
        forward=lambda a, p, ins, running, mode: (
            ops.elementwise_add(ins[0], ins[1]), None, None),
        backward=lambda a, p, ins, gy, saved, need: (
            ops.elementwise_add_backward(gy), {})),
    "fc": NodeKind(
        required=("in", "out"),
        params=lambda a: {"w": (a["in"], a["out"]), "b": (a["out"],)},
        shape=_fc_shape,
        cost=lambda a, ins, out: (a["in"] * a["out"], {"bias": a["out"]}),
        forward=lambda a, p, ins, running, mode: (
            ops.fully_connected(ins[0], p["w"], p["b"]), None, None),
        backward=lambda a, p, ins, gy, saved, need: _grads(
            ops.fully_connected_backward(ins[0], p["w"], gy, need[0]))),
    "softmax-head": NodeKind(cost=_elementwise("head"),
                             forward=_unary(ops.softmax)),
    "sigmoid-head": NodeKind(cost=_elementwise("head"),
                             forward=_unary(ops.sigmoid)),
}


@dataclass(frozen=True)
class LayerNode:
    name: str
    kind: str
    attrs: dict = field(default_factory=dict)
    inputs: tuple = ()

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r} for {self.name!r}")
        kind = NODE_KINDS[self.kind]
        for key in kind.required:
            value = self.attrs.get(key)
            if not isinstance(value, int):
                raise ValueError(f"{self.kind} node {self.name!r} needs an integer "
                                 f"attribute {key!r}, got {value!r}")
            least = 0 if key == "pad" else 1
            if value < least:
                raise ValueError(f"{self.kind} node {self.name!r} needs attribute "
                                 f"{key!r} >= {least}, got {value}")
        for key, attr_type in kind.optional.items():
            if key in self.attrs and not attr_type.accepts(self.attrs[key]):
                raise ValueError(f"{self.kind} node {self.name!r} needs attribute "
                                 f"{key!r} to be {attr_type.what}, got "
                                 f"{self.attrs[key]!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) != kind.arity:
            raise ValueError(f"{self.kind} node {self.name!r} takes {kind.arity} "
                             f"input(s), got {len(self.inputs)}")


@dataclass(frozen=True)
class ArchConfig:
    """Constructive description of the trunk family.

    scale_factor shrinks channel widths, the embedding, and the input size
    together; stage repeats are never scaled.
    """

    stem_channels: int = 32
    stage_repeats: tuple[int, ...] = CANONICAL_STAGE_REPEATS
    stage_channels: tuple[tuple[int, int], ...] = CANONICAL_STAGE_CHANNELS
    embedding_dim: int = 320
    num_identities: int = 10_000
    in_channels: int = 3
    input_size: int = 224
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.scale_factor <= 0:
            raise ValueError(f"scale_factor must be positive, got {self.scale_factor}")
        if len(self.stage_repeats) != len(self.stage_channels):
            raise ValueError("stage_repeats and stage_channels lengths differ: "
                             f"{len(self.stage_repeats)} vs {len(self.stage_channels)}")
        if any(r < 1 for r in self.stage_repeats):
            raise ValueError(f"stage repeats must be >= 1, got {self.stage_repeats}")
        if self.num_identities < 2:
            raise ValueError(f"need at least 2 identities, got {self.num_identities}")

    def _scaled(self, width):
        return max(1, round(width * self.scale_factor))

    @property
    def eff_stem_channels(self):
        return self._scaled(self.stem_channels)

    @property
    def eff_stage_channels(self):
        return tuple((self._scaled(b), self._scaled(e)) for b, e in self.stage_channels)

    @property
    def eff_embedding_dim(self):
        return self._scaled(self.embedding_dim)

    @property
    def eff_input_size(self):
        return max(1, round(self.input_size * self.scale_factor))

    @property
    def total_blocks(self):
        return sum(self.stage_repeats)

    @property
    def conv_count(self):
        """Non-shortcut convolutions: stem + two per block + the bottleneck."""
        return 1 + 2 * self.total_blocks + 1

    @classmethod
    def canonical(cls):
        return cls()

    @classmethod
    def desk(cls, num_identities=20, in_channels=1):
        """Quarter-scale configuration for CPU-sized experiments."""
        return cls(num_identities=num_identities, in_channels=in_channels,
                   scale_factor=0.25)

    def to_mapping(self, prefix="arch."):
        return fields_to_mapping(self, prefix)

    @classmethod
    def from_mapping(cls, mapping, prefix="arch."):
        return fields_from_mapping(cls(), mapping, prefix, "architecture")


@dataclass(frozen=True)
class GraphSpec:
    nodes: tuple
    input_shape: tuple  # (c, h, w)
    branch_points: tuple = ()

    def __post_init__(self):
        seen = {}
        for i, node in enumerate(self.nodes):
            if node.name == INPUT_NAME:
                raise ValueError(f"node name {INPUT_NAME!r} is reserved")
            if node.name in seen:
                raise ValueError(f"duplicate node name {node.name!r}")
            for src in node.inputs:
                if src != INPUT_NAME and src not in seen:
                    raise ValueError(
                        f"node {node.name!r} references {src!r} which is not "
                        f"defined earlier in the graph")
            seen[node.name] = i
        shape = tuple(self.input_shape)
        if len(shape) != 3 or not all(
                isinstance(d, int) and not isinstance(d, bool) and d > 0
                for d in shape):
            raise ValueError(f"input_shape {self.input_shape!r} is not three "
                             f"positive integers (c, h, w)")
        for name in self.branch_points:
            if name not in seen:
                raise ValueError(f"branch point {name!r} names no node")
        object.__setattr__(self, "input_shape", shape)
        object.__setattr__(self, "_index", seen)

    def node(self, name):
        try:
            return self.nodes[self._index[name]]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def serialize(self):
        """Line-oriented text form; parse() restores it bit-exactly."""
        lines = [
            "graph input_shape=%s branch_points=%s" % (
                ",".join(str(d) for d in self.input_shape),
                ",".join(self.branch_points))
        ]
        for node in self.nodes:
            parts = [node.name, node.kind]
            for key in sorted(node.attrs):
                parts.append(f"{key}={_format_attr(node.attrs[key])}")
            parts.append("inputs=" + ",".join(node.inputs))
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("graph "):
            raise ValueError("graph text must start with a 'graph' header line")
        header = {}
        for token in lines[0].split()[1:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"graph header token {token!r} is not key=value")
            header[key] = value
        if "input_shape" not in header:
            raise ValueError("graph header lacks the 'input_shape' key")
        try:
            input_shape = tuple(int(d) for d in header["input_shape"].split(","))
        except ValueError:
            raise ValueError(f"graph header input_shape={header['input_shape']!r} "
                             f"is not a list of integers") from None
        bp_raw = header.get("branch_points", "")
        branch_points = tuple(p for p in bp_raw.split(",") if p)
        nodes = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(f"malformed node line: {line!r}")
            name, kind = parts[0], parts[1]
            attrs = {}
            inputs = ()
            for part in parts[2:]:
                key, _, raw = part.partition("=")
                if key == "inputs":
                    inputs = tuple(p for p in raw.split(",") if p)
                else:
                    attrs[key] = _parse_attr(raw)
            nodes.append(LayerNode(name, kind, attrs, inputs))
        return cls(tuple(nodes), input_shape, branch_points)


def _format_attr(value):
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _parse_attr(raw):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def compute_shapes(graph: GraphSpec) -> dict:
    """Per-sample output shape of every node, keyed by name.

    Convolutional shapes are (c, h, w); fully connected and head outputs
    are (m,). Includes "input" -> graph.input_shape.
    """
    shapes = {INPUT_NAME: tuple(graph.input_shape)}
    for node in graph.nodes:
        ins = [shapes[src] for src in node.inputs]
        try:
            shapes[node.name] = NODE_KINDS[node.kind].shape(node.attrs, ins)
        except ValueError as exc:
            raise ValueError(f"node {node.name!r} {exc}") from None
    return shapes


def build_trunk(config: ArchConfig) -> GraphSpec:
    """Materialize the residual identity trunk for a configuration.

    The finished graph is sized once through compute_shapes, so any
    inconsistency (an odd stem output, a resolution driven to zero by too
    many stride-2 stages) is rejected with the offending node named.
    """
    nodes = []
    stem = config.eff_stem_channels
    nodes.append(LayerNode("conv1", "conv",
                           {"in": config.in_channels, "out": stem, "k": 7,
                            "stride": 2, "pad": 3, "bias": 0},
                           (INPUT_NAME,)))
    nodes.append(LayerNode("bn1", "batchnorm", {"ch": stem, "eps": ops.BN_EPS}, ("conv1",)))
    nodes.append(LayerNode("relu1", "relu", {}, ("bn1",)))
    nodes.append(LayerNode("pool1", "maxpool", {"k": 2, "stride": 2}, ("relu1",)))

    prev_name = "pool1"
    prev_ch = stem
    block = 0
    for stage, ((bott, expa), repeats) in enumerate(
            zip(config.eff_stage_channels, config.stage_repeats)):
        for j in range(repeats):
            block += 1
            down = stage > 0 and j == 0
            stride = 2 if down else 1
            ca, cb = f"conv{2 * block}", f"conv{2 * block + 1}"
            block_in = prev_name
            nodes.append(LayerNode(ca, "conv",
                                   {"in": prev_ch, "out": bott, "k": 1,
                                    "stride": 1, "pad": 0, "bias": 0},
                                   (block_in,)))
            nodes.append(LayerNode(f"bn{2 * block}", "batchnorm",
                                   {"ch": bott, "eps": ops.BN_EPS}, (ca,)))
            nodes.append(LayerNode(f"relu{2 * block}", "relu", {},
                                   (f"bn{2 * block}",)))
            nodes.append(LayerNode(cb, "conv",
                                   {"in": bott, "out": expa, "k": 3,
                                    "stride": stride, "pad": 1, "bias": 0},
                                   (f"relu{2 * block}",)))
            nodes.append(LayerNode(f"bn{2 * block + 1}", "batchnorm",
                                   {"ch": expa, "eps": ops.BN_EPS}, (cb,)))
            skip_name = block_in
            if down or prev_ch != expa:
                skip_name = f"shortcut{block}"
                nodes.append(LayerNode(skip_name, "conv",
                                       {"in": prev_ch, "out": expa, "k": 1,
                                        "stride": stride, "pad": 0, "bias": 0},
                                       (block_in,)))
            nodes.append(LayerNode(f"add{block}", "add", {},
                                   (f"bn{2 * block + 1}", skip_name)))
            nodes.append(LayerNode(f"relu{2 * block + 1}", "relu", {},
                                   (f"add{block}",)))
            prev_name = f"relu{2 * block + 1}"
            prev_ch = expa

    nodes.append(LayerNode("avgpool", "avgpool", {"global": 1}, (prev_name,)))
    emb = config.eff_embedding_dim
    nodes.append(LayerNode("conv-bn320", "conv",
                           {"in": prev_ch, "out": emb, "k": 1,
                            "stride": 1, "pad": 0, "bias": 1},
                           ("avgpool",)))
    nodes.append(LayerNode("bn320", "batchnorm", {"ch": emb, "eps": ops.BN_EPS},
                           ("conv-bn320",)))
    nodes.append(LayerNode("relu320", "relu", {}, ("bn320",)))
    nodes.append(LayerNode("fc", "fc", {"in": emb, "out": config.num_identities},
                           ("relu320",)))
    nodes.append(LayerNode("softmax", "softmax-head", {}, ("fc",)))

    present = [name for name in BRANCH_POINT_NAMES
               if any(n.name == name for n in nodes)]
    spec = GraphSpec(tuple(nodes), (config.in_channels, config.eff_input_size,
                                    config.eff_input_size), tuple(present))
    compute_shapes(spec)
    return spec


def head_graph(trunk: GraphSpec, num_classes: int, loss: str) -> GraphSpec:
    """The trunk with a task head in place of the identity head: fc
    resized to num_classes outputs, then a node "head", a softmax for loss
    "softmax" and a sigmoid otherwise. Every node before fc is the trunk's;
    make_branch and the branch cost accounting both build on this graph."""
    head_kind = "softmax-head" if loss == "softmax" else "sigmoid-head"
    nodes = []
    for node in trunk.nodes:
        if node.kind in ("softmax-head", "sigmoid-head"):
            continue
        if node.kind == "fc":
            node = LayerNode(node.name, "fc",
                             {"in": node.attrs["in"], "out": num_classes},
                             node.inputs)
        nodes.append(node)
    nodes.append(LayerNode("head", head_kind, {}, (nodes[-1].name,)))
    return GraphSpec(tuple(nodes), trunk.input_shape, trunk.branch_points)
