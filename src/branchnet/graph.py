"""Network structure: node kinds, architecture configs, the trunk builder,
serialization.

A GraphSpec is an ordered list of LayerNodes wired by name. The reserved
upstream name "input" refers to the network input; no node may use it.
Node evaluation order is the list order, which is a topological order by
construction. A GraphSpec checks every graph rule when it is made (see
GraphSpec), so every GraphSpec sizes and runs.

Everything a node kind means is defined once, in its NODE_KINDS record:
the attributes it requires or allows and the values each accepts (and so
how graph text reads them), the parameters it owns, its output shape, its
cost, its forward and backward passes, and for a head its loss and hit
rule. The engine, the accounting and the parameter store are loops over
that table.

Canonical trunk naming: the stem convolution is conv1, block i contributes
conv{2i} (the 1x1) and conv{2i+1} (the 3x3), shortcut projections are
shortcut{i} and excluded from the numbering, and the post-pool bottleneck
is conv-bn320 (the 24th convolution at the canonical depth). Branch points
are the intersection of {conv17, conv19, conv21, conv22, conv-bn320, fc}
with the nodes present.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from . import ops
from .config import check_ranges, fields_from_mapping, fields_to_mapping

BRANCH_POINT_NAMES = ("conv17", "conv19", "conv21", "conv22", "conv-bn320", "fc")
INPUT_NAME = "input"
# loss name -> the head kind that carries it (see NodeKind.loss)
LOSS_KINDS = {"softmax": "softmax-head", "sigmoid-multilabel": "sigmoid-head"}

# Committed resolver output (see reports/arch_resolution.txt): the unique
# top-ranked stage composition under the hard constraints, tie-broken by
# lexicographic order per the deterministic ranking rule.
CANONICAL_STAGE_REPEATS = (1, 1, 5, 4)
CANONICAL_STAGE_CHANNELS = ((32, 64), (64, 128), (128, 256), (256, 512))


@dataclass(frozen=True, kw_only=True)
class NodeKind:
    """What one node kind means, in terms of its attribute dict `a`.

    attrs     attribute -> AttrType of the attributes every node carries
    optional  attribute -> AttrType of the attributes a node may carry; it
              carries no attribute that neither declares
    arity     number of inputs every node of the kind reads
    params    a -> {suffix: shape} of the parameters the node owns, as the
              store holds them and ops take them
    stored    suffix -> axes, for each parameter the store holds in an
              order of its own: the store's array is the checkpoint's
              np.transpose(..., axes). Conv weights are (out, in, k, k)
              in a checkpoint and (k, k, in, out) in the store. params
              alone applies it: the checkpoint writer and reader, and
              fill, which draws fresh weights in checkpoint order
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
    loss      heads only: (logits, labels) -> (mean loss, scores, logit
              gradient) of a graph ending in the head; the logits are the
              head's input
    hits      heads only: (logits, labels) -> bool array, True where a
              prediction agrees with its label; accuracy is its mean

    The saved context is what a forward keeps for its own backward so the
    backward need not recompute it. Only a train-mode batchnorm keeps one:
    its per-channel batch mean and std (ops.BatchStats), a few KB. An
    inference-mode forward keeps nothing, and every backward accepts None
    and then recomputes what it needs from its inputs, to the same bits.
    """

    attrs: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    arity: int = 1
    params: Callable = lambda a: {}
    stored: dict = field(default_factory=dict)
    shape: Callable = lambda a, ins: ins[0]
    cost: Callable
    forward: Callable
    backward: Callable | None = None
    loss: Callable | None = None
    hits: Callable | None = None

    def attr_type(self, key):
        """The AttrType the kind declares for attribute key, or None."""
        return self.attrs.get(key) or self.optional.get(key)


@dataclass(frozen=True)
class AttrType:
    """What an attribute's value must be: graph text reads it as `type`,
    `what` says it in words and `accepts` checks it."""

    type: type
    what: str
    accepts: Callable

    def holds(self, value):
        """Whether value is an int or a `type`, not a bool, and accepted."""
        return (isinstance(value, (int, self.type))
                and not isinstance(value, bool) and self.accepts(value))


COUNT = AttrType(int, "an integer >= 1", lambda v: v >= 1)
NATURAL = AttrType(int, "an integer >= 0", lambda v: v >= 0)
FLAG = AttrType(int, "0 or 1", lambda v: v in (0, 1))
ONE = AttrType(int, "1", lambda v: v == 1)
TWO = AttrType(int, "2", lambda v: v == 2)
POSITIVE = AttrType(float, "a positive finite number",
                    lambda v: math.isfinite(v) and v > 0)


def _elementwise(key):
    return lambda a, ins, out: (None, {key: math.prod(out)})


def _unary(fn):
    return lambda a, p, ins, running, mode: (fn(ins[0]), None, None)


def _unary_backward(fn):
    return lambda a, p, ins, gy, saved, need: ((fn(ins[0], gy),), {})


def _grads(lg):
    return (lg.input_grad,), lg.param_grads


def _conv_params(a):
    shapes = {"w": (a["k"], a["k"], a["in"], a["out"])}
    if a.get("bias"):
        shapes["b"] = (a["out"],)
    return shapes


def _spatial(shape):
    """shape, when it is a (c, h, w) shape."""
    if len(shape) != 3:
        raise ValueError(f"needs a (c, h, w) input, got shape {shape}")
    return shape


def _check_channels(a, key, shape):
    if a[key] != shape[0]:
        raise ValueError(f"declares {key}={a[key]} but its input has "
                         f"{shape[0]} channels")


def _conv_shape(a, ins):
    c, h, w = _spatial(ins[0])
    _check_channels(a, "in", ins[0])
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
    _check_channels(a, "ch", _spatial(ins[0]))
    return ins[0]


def _maxpool_shape(a, ins):
    c, h, w = _spatial(ins[0])
    if h % 2 or w % 2:
        raise ValueError(f"pools odd extents {h}x{w}")
    return (c, h // 2, w // 2)


def _avgpool_shape(a, ins):
    return (_spatial(ins[0])[0], 1, 1)


def _add_shape(a, ins):
    if ins[0] != ins[1]:
        raise ValueError(f"adds mismatched shapes {ins[0]} and {ins[1]}")
    return ins[0]


def _head_shape(a, ins):
    if len(ins[0]) != 1 or ins[0][0] < 2:
        raise ValueError(f"needs (m,) logits with m >= 2, got shape {ins[0]}")
    return ins[0]


def _fc_shape(a, ins):
    if a["in"] != math.prod(ins[0]):
        raise ValueError(f"declares in={a['in']} but its input {ins[0]} has "
                         f"{math.prod(ins[0])} elements")
    return (a["out"],)


NODE_KINDS = {
    "conv": NodeKind(
        attrs={"in": COUNT, "out": COUNT, "k": COUNT, "stride": COUNT,
               "pad": NATURAL},
        optional={"bias": FLAG},
        params=_conv_params, stored={"w": (2, 3, 1, 0)},
        shape=_conv_shape, cost=_conv_cost,
        forward=lambda a, p, ins, running, mode: (ops.conv2d_forward(
            ins[0], p["w"], p.get("b"), a["stride"], a["pad"]), None, None),
        backward=lambda a, p, ins, gy, saved, need: _grads(ops.conv2d_backward(
            ins[0], p["w"], p.get("b"), gy, a["stride"], a["pad"], need[0]))),
    "batchnorm": NodeKind(
        attrs={"ch": COUNT}, optional={"eps": POSITIVE},
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
        optional={"k": TWO, "stride": TWO},
        shape=_maxpool_shape, cost=_elementwise("maxpool"),
        forward=_unary(ops.maxpool2x2),
        backward=_unary_backward(ops.maxpool2x2_backward)),
    "avgpool": NodeKind(
        optional={"global": ONE}, shape=_avgpool_shape,
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
        attrs={"in": COUNT, "out": COUNT},
        params=lambda a: {"w": (a["in"], a["out"]), "b": (a["out"],)},
        shape=_fc_shape,
        cost=lambda a, ins, out: (a["in"] * a["out"], {"bias": a["out"]}),
        forward=lambda a, p, ins, running, mode: (
            ops.fully_connected(ins[0], p["w"], p["b"]), None, None),
        backward=lambda a, p, ins, gy, saved, need: _grads(
            ops.fully_connected_backward(ins[0], p["w"], gy, need[0]))),
    "softmax-head": NodeKind(
        shape=_head_shape, cost=_elementwise("head"),
        forward=_unary(ops.softmax),
        loss=ops.softmax_cross_entropy,
        hits=lambda logits, labels: logits.argmax(axis=1) == ops.label_indices(
            labels, *logits.shape)),
    "sigmoid-head": NodeKind(
        shape=_head_shape, cost=_elementwise("head"),
        forward=_unary(ops.sigmoid),
        loss=ops.sigmoid_multilabel_loss,
        hits=lambda logits, labels: (ops.sigmoid(logits) >= 0.5) == (
            labels >= 0.5)),
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
        # the attributes the kind requires, then any other the node carries
        for key in kind.attrs | self.attrs:
            attr_type = kind.attr_type(key)
            if attr_type is None:
                raise ValueError(f"{self.kind} node {self.name!r} carries "
                                 f"undeclared attribute {key!r}")
            if not attr_type.holds(self.attrs.get(key)):
                raise ValueError(f"{self.kind} node {self.name!r} needs attribute "
                                 f"{key!r} to be {attr_type.what}, got "
                                 f"{self.attrs.get(key)!r}")
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
        check_ranges(self, {"scale_factor": "(0, inf)",
                            "num_identities": "[2, inf)",
                            "in_channels": "[1, inf)"})
        if len(self.stage_repeats) != len(self.stage_channels):
            raise ValueError("stage_repeats and stage_channels lengths differ: "
                             f"{len(self.stage_repeats)} vs {len(self.stage_channels)}")
        if any(r < 1 for r in self.stage_repeats):
            raise ValueError(f"stage repeats must be >= 1, got {self.stage_repeats}")
        scaled = [("stem_channels", self.stem_channels),
                  ("embedding_dim", self.embedding_dim),
                  ("input_size", self.input_size)]
        scaled += [("stage_channels", c) for pair in self.stage_channels for c in pair]
        for name, width in scaled:
            if width < 1:
                raise ValueError(f"{name} must be >= 1, got {width}")
            try:
                finite = math.isfinite(width * self.scale_factor)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{name} {width} times scale_factor "
                                 f"{self.scale_factor} is not a finite width")

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
        return self._scaled(self.input_size)

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
    """A graph that runs: every GraphSpec, however it is made (parse,
    build_trunk, head_graph or constructed directly), is checked against
    every graph rule once, when it is made, and a graph that breaks one is
    a ValueError naming the node or branch point:

    - node names are unique, none is "input", and each input is "input" or
      an earlier node; input_shape is three positive integers and each
      branch point names a node;
    - every node sizes (compute_shapes): its kind accepts its inputs'
      shapes, and a head reads (m,) logits with m >= 2;
    - in a graph whose last node is a head, no branch point comes after
      the classifier the head reads (head());
    - every node but the last is read by a later node;
    - a head kind is the last node, or absent.
    """

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
        compute_shapes(self)
        if self.nodes and NODE_KINDS[self.nodes[-1].kind].loss:
            # a branch there would freeze the trunk's classifier, of the
            # trunk's width, into a head that declares its task's
            logits = self.nodes[-1].inputs[0]
            for name in self.branch_points:
                if seen[name] > seen[logits]:
                    raise ValueError(f"branch point {name!r} comes after the "
                                     f"classifier {logits!r}")
        # a node no later node reads would get no gradient, and no
        # gradient flows back through a head
        read = {src for node in self.nodes for src in node.inputs}
        for node in self.nodes[:-1]:
            if node.name not in read:
                raise ValueError(f"node {node.name!r} is read by no later node")
            if NODE_KINDS[node.kind].loss:
                raise ValueError(f"head node {node.name!r} is not the last node")

    def node(self, name):
        return self.nodes[self.index(name)]

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def branch_index(self, name):
        """The index of branch point name; ValueError if name is not one."""
        if name not in self.branch_points:
            raise ValueError(f"{name!r} is not a branch point; valid points: "
                             + ", ".join(self.branch_points))
        return self._index[name]

    def __contains__(self, name):
        return name in self._index

    def serialize(self):
        """Line-oriented text form, each attribute value as str() writes it;
        parse() restores it bit-exactly."""
        lines = [
            "graph input_shape=%s branch_points=%s" % (
                ",".join(str(d) for d in self.input_shape),
                ",".join(self.branch_points))
        ]
        for node in self.nodes:
            parts = [node.name, node.kind]
            for key in sorted(node.attrs):
                parts.append(f"{key}={node.attrs[key]}")
            parts.append("inputs=" + ",".join(node.inputs))
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("graph "):
            raise ValueError("graph text must start with a 'graph' header line")
        header = _pairs(lines[0].split()[1:], "graph header")
        for key in header:
            if key not in ("input_shape", "branch_points"):
                raise ValueError(f"graph header key {key!r} is not input_shape "
                                 f"or branch_points")
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
            pairs = _pairs(parts[2:], f"node {name!r}")
            inputs = tuple(p for p in pairs.pop("inputs", "").split(",") if p)
            attrs = {key: _read(NODE_KINDS.get(kind), key, raw)
                     for key, raw in pairs.items()}
            nodes.append(LayerNode(name, kind, attrs, inputs))
        return cls(tuple(nodes), input_shape, branch_points)


def _pairs(tokens, where):
    """key -> value text of key=value tokens; a token without "=" or a
    repeated key is a ValueError naming where."""
    pairs = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{where} token {token!r} is not key=value")
        if key in pairs:
            raise ValueError(f"{where} repeats key {key!r}")
        pairs[key] = value
    return pairs


def _read(kind, key, raw):
    """raw read as the type kind declares for key; text that type cannot
    read, or no type to read it as, stays text for LayerNode to reject."""
    attr_type = kind.attr_type(key) if kind else None
    try:
        return attr_type.type(raw) if attr_type else raw
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

    The finished GraphSpec checks itself, so any inconsistency (an odd
    stem output, a resolution driven to zero by too many stride-2 stages)
    is rejected with the offending node named.
    """
    nodes = []

    def add(name, kind, attrs, *inputs):
        nodes.append(LayerNode(name, kind, attrs, inputs))
        return name

    def conv(name, src, c_in, c_out, k, stride=1, pad=0, bias=0):
        return add(name, "conv", {"in": c_in, "out": c_out, "k": k,
                                  "stride": stride, "pad": pad, "bias": bias},
                   src)

    def batchnorm(name, src, ch):
        return add(name, "batchnorm", {"ch": ch, "eps": ops.BN_EPS}, src)

    stem = config.eff_stem_channels
    conv("conv1", INPUT_NAME, config.in_channels, stem, 7, stride=2, pad=3)
    batchnorm("bn1", "conv1", stem)
    add("relu1", "relu", {}, "bn1")
    prev_name = add("pool1", "maxpool", {"k": 2, "stride": 2}, "relu1")
    prev_ch = stem
    block = 0
    for stage, ((bott, expa), repeats) in enumerate(
            zip(config.eff_stage_channels, config.stage_repeats)):
        for j in range(repeats):
            block += 1
            down = stage > 0 and j == 0
            stride = 2 if down else 1
            a, b = 2 * block, 2 * block + 1
            conv(f"conv{a}", prev_name, prev_ch, bott, 1)
            batchnorm(f"bn{a}", f"conv{a}", bott)
            add(f"relu{a}", "relu", {}, f"bn{a}")
            conv(f"conv{b}", f"relu{a}", bott, expa, 3, stride=stride, pad=1)
            batchnorm(f"bn{b}", f"conv{b}", expa)
            skip_name = prev_name
            if down or prev_ch != expa:
                skip_name = conv(f"shortcut{block}", prev_name, prev_ch, expa,
                                 1, stride=stride)
            add(f"add{block}", "add", {}, f"bn{b}", skip_name)
            prev_name = add(f"relu{b}", "relu", {}, f"add{block}")
            prev_ch = expa

    add("avgpool", "avgpool", {"global": 1}, prev_name)
    emb = config.eff_embedding_dim
    conv("conv-bn320", "avgpool", prev_ch, emb, 1, bias=1)
    batchnorm("bn320", "conv-bn320", emb)
    add("relu320", "relu", {}, "bn320")
    add("fc", "fc", {"in": emb, "out": config.num_identities}, "relu320")
    add("softmax", "softmax-head", {}, "fc")

    present = [name for name in BRANCH_POINT_NAMES
               if any(n.name == name for n in nodes)]
    return GraphSpec(tuple(nodes), (config.in_channels, config.eff_input_size,
                                    config.eff_input_size), tuple(present))


def check_task(num_classes, loss):
    """Raise ValueError unless a head of num_classes outputs under loss can
    be built: at least 2 classes and a loss from LOSS_KINDS."""
    if num_classes < 2:
        raise ValueError(f"a task needs at least 2 classes, got {num_classes}")
    if loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss {loss!r}; expected one of {', '.join(LOSS_KINDS)}")


def head(graph: GraphSpec):
    """(NodeKind, logits name, loss name) of the graph's head, its last
    node. Its input, the logits node, is the classifier that training,
    branching and serving use; ValueError unless that node is a head."""
    for loss, kind in LOSS_KINDS.items():
        if graph.nodes and graph.nodes[-1].kind == kind:
            return NODE_KINDS[kind], graph.nodes[-1].inputs[0], loss
    last = graph.nodes[-1].name if graph.nodes else None
    raise ValueError(f"the graph's last node {last!r} is not a head node")


def head_graph(trunk: GraphSpec, num_classes: int, loss: str) -> GraphSpec:
    """The trunk with a task head in place of its own: the fc node its head
    reads (head()) resized to num_classes outputs, then a node "head" of
    the kind LOSS_KINDS names for loss. Every other node is the trunk's;
    make_branch and the branch cost accounting both build on this graph.
    A task check_task rejects, or a head reading no fc node, is a
    ValueError; the result is a GraphSpec, so it meets every graph rule."""
    check_task(num_classes, loss)
    _, logits, _ = head(trunk)
    if trunk.node(logits).kind != "fc":
        raise ValueError(f"the trunk's head reads {logits!r}, not an fc node")
    nodes = [replace(node, attrs={**node.attrs, "out": num_classes})
             if node.name == logits else node for node in trunk.nodes[:-1]]
    nodes.append(LayerNode("head", LOSS_KINDS[loss], {}, (logits,)))
    return GraphSpec(tuple(nodes), trunk.input_shape, trunk.branch_points)
