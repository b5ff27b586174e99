"""Branch-depth grid and linear-probe machinery.

The heavy end-to-end study lives in the acceptance tests; here we pin the
selection rules, seed derivation, report formats, and the probe's ability
to read off a factor that is linearly present in pooled features.
"""

import numpy as np
import pytest

from conftest import desk_inputs

from branchnet.common import derive_rng, derive_seed
from branchnet.experiments import (GridResult, GridTask, branch_grid,
                                   format_grid_matrix, format_grid_table,
                                   format_probe_matrix, invariance_probe)
from branchnet.train import Dataset, TrainConfig


def small_grid():
    cells = {("conv19", "a"): 0.8, ("conv22", "a"): 0.8, ("fc", "a"): 0.8,
             ("conv19", "b"): 0.9, ("conv22", "b"): 0.7, ("fc", "b"): 0.7}
    return GridResult(("conv19", "conv22", "fc"), ("a", "b"), cells, seed=7)


def test_best_layer_breaks_ties_toward_the_deepest():
    grid = small_grid()
    assert grid.best_layer("a") == "fc"


def test_best_layer_shallow_must_strictly_win():
    grid = small_grid()
    assert grid.best_layer("b") == "conv19"
    grid.cells[("fc", "b")] = 0.9
    assert grid.best_layer("b") == "fc"


def test_derive_seed_is_deterministic_and_coordinate_sensitive():
    a = derive_seed(11, "grid", "conv19", "nuisance")
    b = derive_seed(11, "grid", "conv19", "nuisance")
    assert a == b
    others = {derive_seed(11, "grid", layer, task)
              for layer in ("conv19", "conv22") for task in ("x", "y")}
    assert len(others) == 4


def test_derive_rng_streams_are_reproducible():
    draws1 = derive_rng(3, "probe-batch", 0).random(5)
    draws2 = derive_rng(3, "probe-batch", 0).random(5)
    assert np.array_equal(draws1, draws2)
    assert not np.array_equal(draws1, derive_rng(3, "probe-batch", 1).random(5))


def test_grid_matrix_round_trips_cell_values():
    grid = small_grid()
    grid.cells[("conv19", "a")] = 1.0 / 3.0
    lines = format_grid_matrix(grid).splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "layer\ta\tb"
    parsed = lines[2].split("\t")
    assert parsed[0] == "conv19"
    assert float(parsed[1]) == grid.cells[("conv19", "a")]


def test_grid_table_stars_one_cell_per_task():
    table = format_grid_table(small_grid(), reference=())
    assert "ties to the deepest" in table
    assert table.count("*") == 2
    fc_row = next(l for l in table.splitlines() if l.startswith("fc"))
    assert fc_row.count("*") == 1  # task a resolves to fc


def test_grid_table_reference_block_is_optional():
    with_ref = format_grid_table(small_grid())
    assert "orientation only" in with_ref
    assert "orientation only" not in format_grid_table(small_grid(),
                                                       reference=())


def test_branch_grid_rejects_non_branch_layer(desk_graph, warm_desk_store):
    task = GridTask("t", "t", 2, "softmax")
    with pytest.raises(ValueError, match="not a branch point"):
        branch_grid(desk_graph, warm_desk_store, [task], {}, {},
                    TrainConfig.desk(), master_seed=0, layers=["conv4"])


def test_branch_grid_wraps_cell_failures(desk_graph, warm_desk_store):
    rng = np.random.default_rng(0)
    x = desk_inputs(rng, 6)
    bad = Dataset(x, np.full(6, 5))  # every label exceeds the 2 classes
    task = GridTask("t", "t", 2, "softmax")
    cfg = TrainConfig.desk(batch_size=3, max_minibatches=1)
    with pytest.raises(RuntimeError, match=r"grid cell \(fc, t\) failed"):
        branch_grid(desk_graph, warm_desk_store, [task], {"t": bad},
                    {"t": bad}, cfg, master_seed=0, layers=["fc"])


def test_probe_reads_a_linear_factor_from_pooled_input(desk_graph,
                                                       warm_desk_store):
    # class 1 images carry a +3 mean offset, which survives spatial pooling
    rng = np.random.default_rng(4)
    xt, xv = desk_inputs(rng, 24), desk_inputs(rng, 12)
    yt = np.arange(24) % 2
    yv = np.arange(12) % 2
    xt += 3.0 * yt[:, None, None, None]
    xv += 3.0 * yv[:, None, None, None]
    result = invariance_probe(desk_graph, warm_desk_store, ["input"],
                              {"offset": 2}, xt, {"offset": yt},
                              xv, {"offset": yv}, seed=5, budget=300,
                              batch=12)
    assert result.cells[("input", "offset")] == 1.0


def test_probe_rejects_unknown_layer(desk_graph, warm_desk_store):
    rng = np.random.default_rng(1)
    x = desk_inputs(rng, 4)
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="unknown probe layer"):
        invariance_probe(desk_graph, warm_desk_store, ["conv99"],
                         {"f": 2}, x, {"f": y}, x, {"f": y}, seed=0,
                         budget=1)


def test_probe_matrix_format(desk_graph, warm_desk_store):
    rng = np.random.default_rng(2)
    x = desk_inputs(rng, 6)
    y = np.array([0, 1, 0, 1, 0, 1])
    result = invariance_probe(desk_graph, warm_desk_store, ["input", "fc"],
                              {"f": 2}, x, {"f": y}, x, {"f": y}, seed=3,
                              budget=5)
    lines = format_probe_matrix(result).splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "layer\tf"
    assert [l.split("\t")[0] for l in lines[2:]] == ["input", "fc"]
    for line in lines[2:]:
        assert 0.0 <= float(line.split("\t")[1]) <= 1.0


def test_probe_over_many_layers_equals_one_layer_at_a_time(desk_graph,
                                                           warm_desk_store):
    rng = np.random.default_rng(6)
    xt, xv = desk_inputs(rng, 10), desk_inputs(rng, 6)
    labels = {"f": rng.integers(0, 3, 10), "g": rng.integers(0, 2, 10)}
    val_labels = {"f": rng.integers(0, 3, 6), "g": rng.integers(0, 2, 6)}
    factors = {"f": 3, "g": 2}
    layers = ("input", "conv17", "conv22", "avgpool", "fc")
    many = invariance_probe(desk_graph, warm_desk_store, layers, factors, xt,
                            labels, xv, val_labels, seed=8, budget=20, batch=4)
    assert set(many.cells) == {(l, f) for l in layers for f in factors}
    for layer in layers:
        one = invariance_probe(desk_graph, warm_desk_store, [layer], factors,
                               xt, labels, xv, val_labels, seed=8, budget=20,
                               batch=4)
        for factor in factors:
            assert one.cells[(layer, factor)] == many.cells[(layer, factor)]
