import re

import numpy as np
import pytest

from branchnet.engine import forward_pass
from branchnet.graph import (ArchConfig, BRANCH_POINT_NAMES, GraphSpec,
                             LayerNode, build_trunk, compute_shapes)
from branchnet.train import TrainConfig, init_params


def test_canonical_has_24_nonshortcut_convs():
    cfg = ArchConfig.canonical()
    graph = build_trunk(cfg)
    names = tuple(n.name for n in graph.nodes
                  if n.kind == "conv" and not n.name.startswith("shortcut"))
    assert len(names) == 24 == cfg.conv_count
    assert names == tuple(f"conv{i}" for i in range(1, 24)) + ("conv-bn320",)


def test_canonical_branch_points():
    graph = build_trunk(ArchConfig.canonical())
    assert graph.branch_points == BRANCH_POINT_NAMES
    assert graph.branch_points == ("conv17", "conv19", "conv21", "conv22",
                                   "conv-bn320", "fc")
    for name in graph.branch_points:
        assert name in graph


def test_branch_points_shrink_with_the_family():
    graph = build_trunk(ArchConfig(stage_repeats=(1, 1, 1, 1)))
    assert graph.branch_points == ("conv-bn320", "fc")


def test_canonical_shortcut_placement():
    graph = build_trunk(ArchConfig.canonical())
    shortcuts = [n.name for n in graph.nodes if n.name.startswith("shortcut")]
    assert shortcuts == ["shortcut1", "shortcut2", "shortcut3", "shortcut8"]
    for name in shortcuts:
        node = graph.node(name)
        assert node.kind == "conv" and node.attrs["k"] == 1 and not node.attrs["bias"]


def test_stride_two_lands_on_stage_lead_3x3s():
    graph = build_trunk(ArchConfig.canonical())
    strided = [n.name for n in graph.nodes
               if n.kind == "conv" and n.attrs["stride"] == 2
               and not n.name.startswith("shortcut")]
    assert strided == ["conv1", "conv5", "conv7", "conv17"]
    for name in ("conv5", "conv7", "conv17"):
        assert graph.node(name).attrs["k"] == 3


def test_bias_carriers():
    graph = build_trunk(ArchConfig.canonical())
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

    assert resolution_trace(build_trunk(ArchConfig.canonical())) == [112, 56, 28, 14, 7]
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
    for cfg in (ArchConfig.canonical(), ArchConfig.desk(),
                ArchConfig(stage_repeats=(2, 2, 2, 2), scale_factor=0.5)):
        graph = build_trunk(cfg)
        text = graph.serialize()
        back = GraphSpec.parse(text)
        assert back.serialize() == text
        assert back.nodes == graph.nodes
        assert back.input_shape == graph.input_shape
        assert back.branch_points == graph.branch_points


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


def test_graph_lookup_errors():
    graph = build_trunk(ArchConfig.desk())
    with pytest.raises(KeyError, match="no node named"):
        graph.node("conv99")
    with pytest.raises(KeyError, match="no node named"):
        graph.index("conv99")
    assert "conv1" in graph and "conv99" not in graph


def test_canonical_forward_produces_probability_rows():
    graph = build_trunk(ArchConfig.canonical())
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
    for old, new in (("k=3 ", ""), ("stride=1 ", ""), ("k=3", "k=abc")):
        with pytest.raises(ValueError, match="integer attribute"):
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
        with pytest.raises(ValueError, match=f"'c' needs attribute '{key}' >= "):
            GraphSpec.parse(ONE_CONV.replace(old, new))
    with pytest.raises(ValueError, match="'b' needs attribute 'ch' >= 1, got 0"):
        LayerNode("b", "batchnorm", {"ch": 0}, ("input",))


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
              "0 or 1, got 'x'"))
    for text, old, new, message in cases:
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
