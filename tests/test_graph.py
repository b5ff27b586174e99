import hashlib
import re
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from conftest import (apply_token_edits, graph_column_edits, graph_token_edits,
                      head_on_relu_over_fc, two_fc)

from branchnet.accounting import suffix_macs
from branchnet.engine import forward_pass
from branchnet.graph import (ArchConfig, BRANCH_POINT_NAMES, LOSS_KINDS,
                             GraphSpec, LayerNode, build_trunk,
                             compute_shapes, head_graph)
from branchnet.multihead import (HeadSpec, MultiHeadModel, load_bundle,
                                 predict_all, run_head_standalone, save_bundle)
from branchnet.resolver import resolve_architecture
from branchnet.train import (Dataset, TrainConfig, finetune, init_params,
                             make_branch, train)


def test_canonical_has_24_nonshortcut_convs():
    cfg = ArchConfig()
    graph = build_trunk(cfg)
    names = tuple(n.name for n in graph.nodes
                  if n.kind == "conv" and not n.name.startswith("shortcut"))
    # stem, two per block, the bottleneck
    assert len(names) == 24 == 1 + 2 * sum(cfg.stage_repeats) + 1
    assert names == tuple(f"conv{i}" for i in range(1, 24)) + ("conv-bn320",)


def test_canonical_branch_points():
    graph = build_trunk(ArchConfig())
    assert graph.branch_points == BRANCH_POINT_NAMES
    assert graph.branch_points == ("conv17", "conv19", "conv21", "conv22",
                                   "conv-bn320", "fc")
    for name in graph.branch_points:
        assert name in graph


def test_branch_points_shrink_with_the_family():
    graph = build_trunk(ArchConfig(stage_repeats=(1, 1, 1, 1)))
    assert graph.branch_points == ("conv-bn320", "fc")


def test_canonical_shortcut_placement():
    graph = build_trunk(ArchConfig())
    shortcuts = [n.name for n in graph.nodes if n.name.startswith("shortcut")]
    assert shortcuts == ["shortcut1", "shortcut2", "shortcut3", "shortcut8"]
    for name in shortcuts:
        node = graph.node(name)
        assert node.kind == "conv" and node.attrs["k"] == 1 and not node.attrs["bias"]


def test_stride_two_lands_on_stage_lead_3x3s():
    graph = build_trunk(ArchConfig())
    strided = [n.name for n in graph.nodes
               if n.kind == "conv" and n.attrs["stride"] == 2
               and not n.name.startswith("shortcut")]
    assert strided == ["conv1", "conv5", "conv7", "conv17"]
    for name in ("conv5", "conv7", "conv17"):
        assert graph.node(name).attrs["k"] == 3


def test_bias_carriers():
    graph = build_trunk(ArchConfig())
    biased = [n.name for n in graph.nodes
              if n.kind == "conv" and n.attrs.get("bias")]
    assert biased == ["conv-bn320"]
    assert graph.node("fc").attrs == {"in": 320, "out": 10_000}


def test_resolution_traces():
    def resolution_trace(graph):
        """Spatial extents after the stem conv, the pool, and each stride-2
        non-shortcut conv after the stem."""
        shapes = compute_shapes(graph)
        return [shapes["conv1"][1], shapes["pool1"][1]] + [
            shapes[n.name][1] for n in graph.nodes
            if n.kind == "conv" and n.attrs["stride"] == 2
            and not n.name.startswith("shortcut") and n.name != "conv1"]

    assert resolution_trace(build_trunk(ArchConfig())) == [112, 56, 28, 14, 7]
    desk = resolution_trace(build_trunk(ArchConfig.desk()))
    assert desk == [28, 14, 7, 4, 2]
    assert desk[:4] == [28, 14, 7, 4]


def test_desk_scaling_of_widths():
    cfg = ArchConfig.desk()
    assert cfg.eff_stem_channels == 8
    assert cfg.eff_stage_channels == ((8, 16), (16, 32), (32, 64), (64, 128))
    assert cfg.eff_embedding_dim == 80
    assert cfg.eff_input_size == 56
    assert cfg.in_channels == 1 and cfg.num_identities == 20


def test_serialization_round_trips_bit_exactly():
    for cfg in (ArchConfig(), ArchConfig.desk(),
                ArchConfig(stage_repeats=(2, 2, 2, 2), scale_factor=0.5)):
        graph = build_trunk(cfg)
        text = graph.serialize()
        back = GraphSpec.parse(text)
        assert back.serialize() == text
        assert back.nodes == graph.nodes
        assert back.input_shape == graph.input_shape
        assert back.branch_points == graph.branch_points


def test_graph_text_is_pinned():
    # every checkpoint and bundle embeds this text
    desk = build_trunk(ArchConfig.desk())
    for graph, digest in (
            (build_trunk(ArchConfig()), "ccc6495786e41d98"),
            (desk, "1bf6bd983a595ce6"),
            (head_graph(desk, 9, "sigmoid-multilabel"), "8f78ae66a19fe770")):
        text = graph.serialize().encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest


def test_head_graph_resizes_only_the_classifier_the_head_reads(desk_graph):
    trunk = two_fc(desk_graph)
    graph = head_graph(trunk, 7, "softmax")
    assert graph.node("fc0").attrs == {"in": 80, "out": 40}
    assert graph.node("fc").attrs == {"in": 40, "out": 7}
    assert graph.nodes[-1].inputs == ("fc",)
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((4, 1, 56, 56)).astype(np.float32),
                   rng.integers(0, 7, size=4))
    store = init_params(trunk, TrainConfig.desk(seed=4))
    store.running.update(forward_pass(trunk, store, data.inputs)[1])
    br = make_branch(trunk, store, "conv22", 7, seed=2)
    assert br.graph == graph
    log = finetune(br, data, TrainConfig.desk(batch_size=4, max_minibatches=1))
    assert len(log.rows) == 1


def test_a_head_that_reads_no_fc_node_has_no_classifier(desk_graph):
    trunk = head_on_relu_over_fc(desk_graph)
    message = "the trunk's head reads 'fc_relu', not an fc node"
    with pytest.raises(ValueError, match=message):
        head_graph(trunk, 7, "softmax")
    store = init_params(trunk, TrainConfig.desk(seed=4))
    with pytest.raises(ValueError, match=message):
        make_branch(trunk, store, "conv22", 7, warm=True)


def test_build_is_deterministic():
    a = build_trunk(ArchConfig.desk()).serialize()
    b = build_trunk(ArchConfig.desk()).serialize()
    assert a == b


def test_graph_validation_errors():
    conv = LayerNode("c", "conv", {"in": 1, "out": 1, "k": 1, "stride": 1,
                                   "pad": 0, "bias": 0}, ("input",))
    with pytest.raises(ValueError, match="duplicate"):
        GraphSpec((conv, conv), (1, 4, 4))
    with pytest.raises(ValueError, match="not\\s+defined earlier"):
        GraphSpec((LayerNode("r", "relu", {}, ("missing",)),), (1, 4, 4))
    with pytest.raises(ValueError, match="reserved"):
        GraphSpec((LayerNode("input", "relu", {}, ("input",)),), (1, 4, 4))
    with pytest.raises(ValueError, match="unknown node kind"):
        LayerNode("x", "dropout", {}, ())


def test_build_rejects_odd_stem_output():
    with pytest.raises(ValueError, match="odd"):
        build_trunk(ArchConfig(input_size=30))


def test_arch_config_validation():
    with pytest.raises(ValueError, match="scale_factor"):
        ArchConfig(scale_factor=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        ArchConfig(stage_repeats=(1, 0, 1, 1))
    with pytest.raises(ValueError, match="lengths differ"):
        ArchConfig(stage_repeats=(1, 1, 1))
    with pytest.raises(ValueError, match="identities"):
        ArchConfig(num_identities=1)


def test_arch_config_mapping_round_trip():
    cfg = ArchConfig.desk(num_identities=14)
    assert ArchConfig.from_mapping(cfg.to_mapping()) == cfg
    with pytest.raises(ValueError, match="unknown architecture key"):
        ArchConfig.from_mapping({"arch.flux": "1"})


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError, match="header"):
        GraphSpec.parse("conv1 conv inputs=input\n")
    with pytest.raises(ValueError, match="malformed"):
        GraphSpec.parse("graph input_shape=1,4,4 branch_points=\nbroken\n")


def test_header_without_input_shape_is_a_value_error():
    with pytest.raises(ValueError, match="'input_shape'"):
        GraphSpec.parse("graph branch_points=\nr relu inputs=input\n")
    with pytest.raises(ValueError, match="input_shape='1,x,4'"):
        GraphSpec.parse("graph input_shape=1,x,4\nr relu inputs=input\n")


def test_header_token_without_equals_is_a_value_error():
    with pytest.raises(ValueError, match="header token 'branch_points' is not"):
        GraphSpec.parse("graph input_shape=1,4,4 branch_points\n"
                        "r relu inputs=input\n")


def test_branch_index_is_the_one_branch_point_check():
    graph = build_trunk(ArchConfig.desk())
    for name in graph.branch_points:
        assert graph.branch_index(name) == graph.index(name)
    for name in ("relu5", "conv99"):
        with pytest.raises(ValueError, match=f"^'{name}' is not a branch "
                                             f"point; valid points: conv17, "):
            graph.branch_index(name)


def test_graph_lookup_errors():
    graph = build_trunk(ArchConfig.desk())
    with pytest.raises(KeyError, match="no node named"):
        graph.node("conv99")
    with pytest.raises(KeyError, match="no node named"):
        graph.index("conv99")
    assert "conv1" in graph and "conv99" not in graph


def test_canonical_forward_produces_probability_rows():
    graph = build_trunk(ArchConfig())
    store = init_params(graph, TrainConfig(seed=3, init_std=0.05))
    x = np.random.default_rng(0).standard_normal((2, 3, 224, 224)).astype(np.float32)
    acts, _ = forward_pass(graph, store, x, mode="train")
    probs = acts["softmax"]
    assert probs.shape == (2, 10_000)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_missing_or_non_integer_attribute_is_rejected_at_load():
    good = ("graph input_shape=1,8,8 branch_points=\n"
            "c conv bias=0 in=1 k=3 out=2 pad=1 stride=1 inputs=input\n")
    assert GraphSpec.parse(good).node("c").attrs["k"] == 3
    for old, new in (("k=3 ", ""), ("stride=1 ", ""), ("k=3", "k=abc"),
                     ("k=3", "k=3.0")):
        key = old.partition("=")[0]
        with pytest.raises(ValueError, match=f"'c' needs attribute '{key}' to "
                                             f"be an integer >= 1, got "):
            GraphSpec.parse(good.replace(old, new))
    with pytest.raises(ValueError, match="'ch'"):
        LayerNode("b", "batchnorm", {"eps": 1e-5}, ("input",))
    with pytest.raises(ValueError, match="'out'"):
        LayerNode("f", "fc", {"in": 4, "out": 2.0}, ("input",))


ONE_CONV = ("graph input_shape=1,8,8 branch_points=\n"
            "c conv bias=0 in=1 k=3 out=2 pad=1 stride=1 inputs=input\n")


def test_non_positive_integer_attribute_is_rejected_at_load():
    assert GraphSpec.parse(ONE_CONV.replace("pad=1", "pad=0"))
    for old, new in (("stride=1", "stride=0"), ("k=3", "k=0"),
                     ("in=1", "in=-1"), ("pad=1", "pad=-1")):
        key = new.partition("=")[0]
        least = 0 if key == "pad" else 1
        with pytest.raises(ValueError, match=f"'c' needs attribute '{key}' to "
                                             f"be an integer >= {least}, got -?"):
            GraphSpec.parse(ONE_CONV.replace(old, new))
    with pytest.raises(ValueError, match="'b' needs attribute 'ch' to be an "
                                         "integer >= 1, got 0"):
        LayerNode("b", "batchnorm", {"ch": 0}, ("input",))
    with pytest.raises(ValueError, match="'c' needs attribute 'k' to be an "
                                         "integer >= 1, got True"):
        LayerNode("c", "conv", {"in": 1, "out": 1, "k": True, "stride": 1,
                                "pad": 0}, ("input",))


def test_wrong_input_count_is_rejected_at_load():
    header = "graph input_shape=1,8,8 branch_points=\n"
    with pytest.raises(ValueError, match="add node 'a' takes 2 input"):
        GraphSpec.parse(header + "a add inputs=input\n")
    with pytest.raises(ValueError, match="relu node 'r' takes 1 input"):
        GraphSpec.parse(header + "r relu inputs=\n")


def test_declared_channels_must_match_the_input():
    with pytest.raises(ValueError, match="node 'c' declares in=2 but its "
                                         "input has 1 channels"):
        compute_shapes(GraphSpec.parse(ONE_CONV.replace("in=1", "in=2")))
    with pytest.raises(ValueError, match="node 'b' declares ch=3 but its "
                                         "input has 2 channels"):
        compute_shapes(GraphSpec.parse(ONE_CONV + "b batchnorm ch=3 inputs=c\n"))
    with pytest.raises(ValueError, match=r"node 'f' declares in=64 but its "
                                         r"input \(2, 8, 8\) has 128 elements"):
        compute_shapes(GraphSpec.parse(ONE_CONV + "f fc in=64 out=3 inputs=c\n"))
    shapes = compute_shapes(GraphSpec.parse(
        ONE_CONV + "b batchnorm ch=2 inputs=c\nf fc in=128 out=3 inputs=b\n"))
    assert shapes["f"] == (3,)


def test_optional_attributes_are_typed_at_load():
    bn = ONE_CONV + "b batchnorm ch=2 eps=1e-05 inputs=c\n"
    pool = ONE_CONV + "p avgpool global=1 inputs=c\n"
    maxpool = ONE_CONV + "p maxpool k=2 stride=2 inputs=c\n"
    assert compute_shapes(GraphSpec.parse(maxpool))["p"] == (2, 4, 4)
    assert GraphSpec.parse(bn).node("b").attrs["eps"] == 1e-05
    assert GraphSpec.parse(pool).node("p").attrs["global"] == 1
    cases = ((bn, "eps=1e-05", "eps=abc", "'b' needs attribute 'eps' to be a "
              "positive finite number, got 'abc'"),
             (bn, "eps=1e-05", "eps=0", "'b' needs attribute 'eps'"),
             (bn, "eps=1e-05", "eps=nan", "'b' needs attribute 'eps'"),
             (bn, "eps=1e-05", "eps=-inf", "'b' needs attribute 'eps'"),
             (ONE_CONV, "bias=0", "bias=2", "'c' needs attribute 'bias' to be "
              "0 or 1, got 2"),
             (ONE_CONV, "bias=0", "bias=1.0", "'c' needs attribute 'bias'"),
             (pool, "global=1", "global=x", "'p' needs attribute 'global' to be "
              "1, got 'x'"),
             (pool, "global=1", "global=0", "avgpool node 'p' needs attribute "
              "'global' to be 1, got 0"),
             (maxpool, "k=2", "k=3", "maxpool node 'p' needs attribute 'k' to "
              "be 2, got 3"),
             (maxpool, "stride=2", "stride=1", "maxpool node 'p' needs "
              "attribute 'stride' to be 2, got 1"),
             # a key the kind does not declare
             (ONE_CONV + "r relu inputs=c\n", "inputs=c", "foo=bar inputs=c",
              "relu node 'r' carries undeclared attribute 'foo'"),
             (ONE_CONV, "bias=0", "bias=0 eps=5", "conv node 'c' carries "
              "undeclared attribute 'eps'"),
             (bn, "ch=2", "ch=2 bias=1", "batchnorm node 'b' carries "
              "undeclared attribute 'bias'"),
             # a conv line read as fc keeps no conv attribute
             (ONE_CONV + "d conv bias=1 in=2 k=1 out=2 pad=0 stride=1 "
              "inputs=c\n", "d conv", "d fc", "fc node 'd' carries "
              "undeclared attribute 'bias'"),
             # a repeated key, an attribute or the inputs
             (bn, "eps=1e-05", "eps=1e-05 eps=1e-03", "node 'b' repeats key "
              "'eps'"),
             (ONE_CONV, "k=3", "k=3 k=1", "node 'c' repeats key 'k'"),
             (bn, "inputs=c", "inputs=c inputs=c", "node 'b' repeats key "
              "'inputs'"),
             (bn, "ch=2", "ch=2 x", "node 'b' token 'x' is not key=value"),
             # a header key other than input_shape and branch_points, or one
             # given twice
             (ONE_CONV, "branch_points=", "branch_points= foo=bar",
              "graph header key 'foo' is not input_shape or branch_points"),
             (ONE_CONV, "branch_points=", "branch_points= branch_points=c",
              "graph header repeats key 'branch_points'"),
             (ONE_CONV, "branch_points=", "branch_points= input_shape=1,8,8",
              "graph header repeats key 'input_shape'"))
    for text, old, new, message in cases:
        assert text.count(old) == 1, (text, old)
        with pytest.raises(ValueError, match=message):
            GraphSpec.parse(text.replace(old, new))


def test_header_input_shape_and_branch_points_are_checked():
    relu = "relu relu inputs=input\n"
    for shape, shown in (("1,-4,0", "(1, -4, 0)"), ("1,4", "(1, 4)"),
                         ("1,4,4,4", "(1, 4, 4, 4)"), ("0,4,4", "(0, 4, 4)")):
        with pytest.raises(ValueError, match=re.escape(f"input_shape {shown} is "
                                                       f"not three positive")):
            GraphSpec.parse(f"graph input_shape={shape} branch_points=relu\n{relu}")
    with pytest.raises(ValueError, match="branch point 'nowhere' names no node"):
        GraphSpec.parse(f"graph input_shape=1,4,4 branch_points=nowhere,relu\n{relu}")
    with pytest.raises(ValueError, match="input_shape"):
        GraphSpec((LayerNode("r", "relu", {}, ("input",)),), (1, 4.0, 4))
    graph = GraphSpec.parse(f"graph input_shape=1,4,4 branch_points=relu\n{relu}")
    assert graph.input_shape == (1, 4, 4) and graph.branch_points == ("relu",)


@pytest.mark.parametrize("line", [
    "b batchnorm ch=3 inputs=f",
    "k conv bias=0 in=3 k=1 out=2 pad=0 stride=1 inputs=f",
    "p maxpool inputs=f",
    "a avgpool global=1 inputs=f"])
def test_a_spatial_kind_over_a_rank_one_input_is_rejected_at_load(line):
    text = ONE_CONV + "f fc in=128 out=3 inputs=c\n" + line + "\n"
    name = line.split()[0]
    with pytest.raises(ValueError, match=re.escape(
            f"node {name!r} needs a (c, h, w) input, got shape (3,)")):
        compute_shapes(GraphSpec.parse(text))


# graph text fuzz: the desk trunk's text with one or two tokens replaced by
# tokens of the same text; it parses into a graph that sizes, initializes
# and runs, or it is one ValueError
DESK = build_trunk(ArchConfig.desk(num_identities=5))
DESK_TEXT = DESK.serialize()
# conv-bn320 read as an fc over the pooled (64, 1, 1) (line 0 is the
# header): bn320 then normalizes a rank-1 input, which only the rank check
# rejects
CONV_TO_FC = [(DESK.index("conv-bn320") + 1, 1, "fc")]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=graph_token_edits(DESK_TEXT))
@example(edits=CONV_TO_FC)
def test_fuzzed_graph_text_runs_or_is_one_value_error(edits):
    try:
        graph = GraphSpec.parse(apply_token_edits(DESK_TEXT, edits))
        compute_shapes(graph)
    except ValueError:
        return
    store = init_params(graph, TrainConfig(init_std=0.0))
    x = np.ones((2,) + graph.input_shape, dtype=np.float32)
    forward_pass(graph, store, x, mode="train")


# the pipeline over the same edits: a graph that constructs and ends in a
# head, as every trunk does, takes a train step, branches cold and warm at
# each of its branch points with a finetune step, goes through a bundle,
# and serves each head bit for bit as its standalone forward
UNREAD_ADD5 = [(42, 5, "inputs=relu7")]  # relu11 reads relu7: no node reads add5
MID_HEAD = [(38, 1, "softmax-head")]  # relu10 as a head over the (32, 4, 4) bn10
UNEDITED = [(1, 0, "conv1")]


def run_pipeline(graph):
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((8,) + graph.input_shape).astype(
        np.float32), np.arange(8) % 2)
    config = TrainConfig.desk(batch_size=8, max_minibatches=1)
    store = init_params(graph, config)
    train(graph, store, data, config)
    model = MultiHeadModel(graph, store)
    for layer in graph.branch_points:
        for warm in (False, True):
            branch = make_branch(graph, store, layer, 2, warm=warm)
            finetune(branch, data, config)
            spec = HeadSpec(f"{layer}-{'warm' if warm else 'cold'}", layer, 2,
                            "softmax")
            model.add_head(spec, branch.graph, branch.store)
    with tempfile.TemporaryDirectory() as bundle:
        save_bundle(bundle, model)
        model = load_bundle(bundle)
    assert len(model.heads) == 2 * len(graph.branch_points)
    prediction = predict_all(model, data.inputs)
    for h in model.heads:
        alone = run_head_standalone(h, data.inputs)
        assert prediction.tasks[h.spec.task].scores.tobytes() == alone.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=graph_column_edits(DESK_TEXT))
@example(edits=UNEDITED)
@example(edits=UNREAD_ADD5)
@example(edits=MID_HEAD)
def test_fuzzed_graph_text_that_constructs_trains_branches_and_serves(edits):
    try:
        graph = GraphSpec.parse(apply_token_edits(DESK_TEXT, edits))
    except ValueError:
        return
    if graph.nodes[-1].kind not in LOSS_KINDS.values():  # not a trunk
        with pytest.raises(ValueError, match="is not a head node"):
            init_params(graph, TrainConfig())
        return
    run_pipeline(graph)


# every graph rule holds whichever way a graph is made: parsed from text or
# constructed from nodes

def graph_text(nodes, input_shape, branch_points):
    """The text GraphSpec.serialize writes for these fields, written
    without making a GraphSpec."""
    return GraphSpec.serialize(SimpleNamespace(
        nodes=nodes, input_shape=input_shape, branch_points=branch_points))


def replaced(name, node):
    """DESK's nodes with node in place of the node called name."""
    return tuple(node if n.name == name else n for n in DESK.nodes)


BN1, RELU11, FC, HEAD = (DESK.node(name) for name in
                         ("bn1", "relu11", "fc", "softmax"))
FC_AT, BPS = DESK.index("fc"), DESK.branch_points
FC0 = LayerNode("fc0", "fc", {"in": 80, "out": 40}, ("relu320",))
MID = LayerNode("mid", "softmax-head", {}, ("fc0",))
LOGITS = r"node 'softmax' needs \(m,\) logits with m >= 2, got shape "
REJECTED = [
    pytest.param(replaced("bn1", replace(BN1, attrs={**BN1.attrs, "ch": 9})),
                 BPS, "node 'bn1' declares ch=9 but its input has 8 channels",
                 id="channels"),
    pytest.param(DESK.nodes[:FC_AT + 1]
                 + (LayerNode("dead", "relu", {}, ("fc",)), HEAD),
                 BPS + ("dead",),
                 "branch point 'dead' comes after the classifier 'fc'",
                 id="late-branch-point"),
    pytest.param(DESK.nodes[:FC_AT] + (replace(HEAD, inputs=("relu320",)),),
                 BPS[:-1], LOGITS + r"\(80, 1, 1\)", id="head-on-relu320"),
    pytest.param(replaced("fc", replace(FC, attrs={"in": 80, "out": 1})),
                 BPS, LOGITS + r"\(1,\)", id="one-class"),
    pytest.param(replaced("relu11", replace(RELU11, inputs=("relu7",))),
                 BPS, "node 'add5' is read by no later node", id="unread-node"),
    pytest.param(DESK.nodes[:FC_AT] + (FC0, MID, replace(
        FC, attrs={"in": 40, "out": 5}, inputs=("mid",)), HEAD),
                 BPS, "head node 'mid' is not the last node", id="mid-head"),
]


@pytest.mark.parametrize("nodes, branch_points, message", REJECTED)
def test_a_graph_that_breaks_a_rule_is_rejected_when_made(nodes, branch_points,
                                                          message):
    with pytest.raises(ValueError, match=message):
        GraphSpec(nodes, DESK.input_shape, branch_points)
    text = graph_text(nodes, DESK.input_shape, branch_points)
    with pytest.raises(ValueError, match=message):
        GraphSpec.parse(text)


def test_a_head_reads_logits_of_two_classes_or_more():
    logits = LayerNode("f", "fc", {"in": 4, "out": 2}, ("input",))
    for kind in LOSS_KINDS.values():
        GraphSpec((logits, LayerNode("h", kind, {}, ("f",))), (4, 1, 1))
        with pytest.raises(ValueError, match=r"node 'h' needs \(m,\) logits"):
            GraphSpec((LayerNode("h", kind, {}, ("input",)),), (2, 1, 1))


# the rules reject nothing the program itself builds

def program_trunks():
    yield build_trunk(ArchConfig())
    yield build_trunk(ArchConfig.desk())
    for candidate in resolve_architecture().candidates:
        yield build_trunk(ArchConfig(stage_repeats=candidate.stage_repeats))


def test_every_trunk_and_head_graph_the_program_builds_constructs():
    trunks = list(program_trunks())
    assert len(trunks) == 2 + 25
    for trunk in trunks:
        for loss in LOSS_KINDS:
            graph = head_graph(trunk, 7, loss)
            for layer in trunk.branch_points:
                assert graph.branch_index(layer) == trunk.index(layer)
        for layer in trunk.branch_points:
            assert suffix_macs(trunk, layer, 7) > 0
