import numpy as np
import pytest

from branchnet.accounting import (branch_trainable_params, compute_shapes,
                                  count_flops, count_params, format_cost_table,
                                  suffix_macs)
from branchnet.engine import forward_pass
from branchnet.graph import ArchConfig, GraphSpec, LayerNode, build_trunk
from branchnet.graph import NODE_KINDS
from branchnet.train import TrainConfig, init_params
from branchnet.train import make_branch

CANONICAL = build_trunk(ArchConfig.canonical())


def test_canonical_totals():
    _, total_params = count_params(CANONICAL)
    assert total_params == 10_460_848
    report = count_flops(CANONICAL)
    assert report.total_macs == 810_595_328
    assert report.total_flops2x == 2 * 810_595_328 == 1_621_190_656
    assert count_flops(CANONICAL).total_macs == report.total_macs
    assert 8_500_000 <= total_params <= 10_500_000
    assert 800_000_000 <= report.total_macs <= 1_000_000_000


def test_identity_head_cost():
    report = count_flops(CANONICAL)
    assert report.per_node_macs["fc"] == 320 * 10_000 == 3_200_000


def test_single_conv_cost_formula():
    # 1x1 conv, 512 -> 128 channels on a 7x7 map: 512*128*49 multiplies
    node = LayerNode("c", "conv", {"in": 512, "out": 128, "k": 1, "stride": 1,
                                   "pad": 0, "bias": 0}, ("input",))
    graph = GraphSpec((node,), (512, 7, 7))
    assert count_flops(graph).per_node_macs["c"] == 3_211_264


def test_head_replacement_param_counts():
    assert branch_trainable_params(CANONICAL, "fc", 2) == 642
    assert branch_trainable_params(CANONICAL, "fc", 9) == 2889
    assert branch_trainable_params(CANONICAL, "fc", 10_000) == 320 * 10_000 + 10_000


def test_branch_trainable_params_frozen_reference_depths():
    assert branch_trainable_params(CANONICAL, "conv19", 7) == 3_972_231
    assert branch_trainable_params(CANONICAL, "conv22", 14) == 1_481_550


def test_branch_trainable_params_monotone_in_depth():
    counts = [branch_trainable_params(CANONICAL, layer, 7)
              for layer in CANONICAL.branch_points]
    assert counts == sorted(counts, reverse=True)


def test_branch_validation_errors():
    with pytest.raises(ValueError, match="conv17, conv19"):
        branch_trainable_params(CANONICAL, "conv2", 7)
    with pytest.raises(ValueError, match="at least 2"):
        branch_trainable_params(CANONICAL, "fc", 1)
    with pytest.raises(ValueError, match="not a branch point"):
        suffix_macs(CANONICAL, "bn1", 7)


def test_suffix_macs_reference_values():
    assert suffix_macs(CANONICAL, "fc", 2) == 640
    assert suffix_macs(CANONICAL, "fc", 9) == 2880
    assert suffix_macs(CANONICAL, "conv19", 7) == 186_419_392
    assert suffix_macs(CANONICAL, "conv22", 14) == 64_393_600


def test_four_head_combined_cost():
    trunk = count_flops(CANONICAL).total_macs
    combined = trunk + suffix_macs(CANONICAL, "conv19", 7) \
        + suffix_macs(CANONICAL, "conv22", 14) \
        + suffix_macs(CANONICAL, "fc", 9) + suffix_macs(CANONICAL, "fc", 2)
    assert combined == 1_061_411_840
    assert abs(combined / trunk - 1.3094225976) < 1e-9


@pytest.mark.parametrize("cfg", [ArchConfig.canonical(), ArchConfig.desk(),
                                 ArchConfig(stage_repeats=(2, 1, 3, 2),
                                            scale_factor=0.5, num_identities=50)])
def test_param_count_matches_materialized_store(cfg):
    graph = build_trunk(cfg)
    store = init_params(graph, TrainConfig(seed=0))
    _, total = count_params(graph)
    assert total == sum(a.size for a in store.arrays.values())


def test_spatial_scaling_law():
    base = count_flops(build_trunk(ArchConfig.canonical()))
    double = count_flops(build_trunk(ArchConfig(input_size=448)))
    spatial_free = ("conv-bn320", "fc")
    tail = sum(base.per_node_macs[n] for n in spatial_free)
    tail2 = sum(double.per_node_macs[n] for n in spatial_free)
    assert tail == tail2  # post-pool work is resolution independent
    # 448's trace doubles 224's entry for entry, so spatial work scales by
    # exactly 4; at 112 the shape rule rounds and the ratio only approaches 4
    assert (double.total_macs - tail2) == 4 * (base.total_macs - tail)
    half = count_flops(build_trunk(ArchConfig(input_size=112)))
    ratio = (base.total_macs - tail) / (half.total_macs - tail)
    assert 3.0 < ratio < 4.2


def test_aux_work_is_separated_and_small():
    report = count_flops(CANONICAL)
    assert set(report.aux_elements) == {"bias", "batchnorm", "relu", "add",
                                        "maxpool", "avgpool", "head"}
    assert sum(report.aux_elements.values()) < 0.02 * report.total_macs
    assert report.aux_elements["head"] == 10_000
    assert report.aux_elements["bias"] == 320 + 10_000


def test_compute_shapes_canonical_landmarks():
    shapes = compute_shapes(CANONICAL)
    assert shapes["input"] == (3, 224, 224)
    assert shapes["conv1"] == (32, 112, 112)
    assert shapes["pool1"] == (32, 56, 56)
    assert shapes["relu23"] == (512, 7, 7)
    assert shapes["avgpool"] == (512, 1, 1)
    assert shapes["conv-bn320"] == (320, 1, 1)
    assert shapes["fc"] == (10_000,)


def test_compute_shapes_error_paths():
    conv = LayerNode("c", "conv", {"in": 1, "out": 1, "k": 5, "stride": 1,
                                   "pad": 0, "bias": 0}, ("input",))
    with pytest.raises(ValueError, match="empty output"):
        compute_shapes(GraphSpec((conv,), (1, 3, 3)))
    pool = LayerNode("p", "maxpool", {}, ("input",))
    with pytest.raises(ValueError, match="odd extents"):
        compute_shapes(GraphSpec((pool,), (1, 5, 4)))
    bad_add = (
        LayerNode("c", "conv", {"in": 1, "out": 2, "k": 1, "stride": 1,
                                "pad": 0, "bias": 0}, ("input",)),
        LayerNode("a", "add", {}, ("c", "input")),
    )
    with pytest.raises(ValueError, match="mismatched shapes"):
        compute_shapes(GraphSpec(bad_add, (1, 4, 4)))


def test_cost_table_mentions_totals_and_both_conventions():
    text = format_cost_table(CANONICAL)
    assert "10,460,848" in text
    assert "810,595,328" in text
    assert "1,621,190,656" in text
    assert "conv-bn320" in text and "fc" in text


def test_forward_shapes_match_compute_shapes_for_every_kind(desk_graph,
                                                           desk_store):
    branch = make_branch(desk_graph, desk_store, "conv22", 3,
                         loss="sigmoid-multilabel")
    x = np.random.default_rng(5).standard_normal((2, 1, 56, 56)) \
        .astype(np.float32)
    kinds = set()
    for graph, store in ((desk_graph, desk_store), (branch.graph, branch.store)):
        acts, _ = forward_pass(graph, store, x, mode="train")
        shapes = compute_shapes(graph)
        for node in graph.nodes:
            assert acts[node.name].shape == (2,) + shapes[node.name], node.name
            kinds.add(node.kind)
    assert kinds == set(NODE_KINDS)
