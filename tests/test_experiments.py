"""Branch-depth grid, linear-probe machinery and the labelled-data loader.

The heavy end-to-end study lives in the acceptance tests; here we pin the
selection rules, seed derivation, report formats, the probe's ability to
read off a factor that is linearly present in pooled features, and
load_tasks: one read of a split's tensors shared by every task, and a
ValueError for any manifest text it cannot load.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import desk_inputs

from branchnet import dataio
from branchnet.common import derive_rng, derive_seed
from branchnet.dataio import (Manifest, SynthSpec, bitmask_to_vector,
                              generate_synthetic, load_batch, split_ids,
                              write_tensor)
from branchnet.experiments import (REFERENCE_CELLS, GridResult, GridTask,
                                   branch_grid, format_grid_matrix,
                                   format_grid_table, format_probe_matrix,
                                   invariance_probe, load_tasks)
from branchnet.engine import infer
from branchnet.train import (Dataset, TrainConfig, evaluate_accuracy, finetune,
                             make_branch)

TASKS = (GridTask("nuisance", "nuisance", 7),
         GridTask("binary", "binary", 2),
         GridTask("tags", "multilabel", 9, "sigmoid-multilabel"))


def small_grid():
    cells = {("conv19", "a"): 0.8, ("conv22", "a"): 0.8, ("fc", "a"): 0.8,
             ("conv19", "b"): 0.9, ("conv22", "b"): 0.7, ("fc", "b"): 0.7}
    return GridResult(layers=("conv19", "conv22", "fc"), columns=("a", "b"),
                      cells=cells, seed=7)


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
    table = format_grid_table(small_grid())
    assert "ties to the deepest" in table
    assert table.count("*") == 2
    fc_row = next(l for l in table.splitlines() if l.startswith("fc"))
    assert fc_row.count("*") == 1  # task a resolves to fc


def test_grid_table_ends_with_the_reference_points():
    lines = format_grid_table(small_grid()).splitlines()
    assert "orientation only" in lines[-1 - len(REFERENCE_CELLS)]
    assert lines[-len(REFERENCE_CELLS):] == [
        f"  {task} best at {layer}: {acc:.2f}"
        for task, layer, acc in REFERENCE_CELLS]


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
    with pytest.raises(ValueError, match=r"grid cell \(fc, t\) failed"):
        branch_grid(desk_graph, warm_desk_store, [task], {"t": bad},
                    {"t": bad}, cfg, master_seed=0, layers=["fc"])


def test_branch_grid_passes_a_defect_in_a_cell_through(desk_graph,
                                                       warm_desk_store,
                                                       monkeypatch):
    def broken(branch, dataset, config):
        raise TypeError("a defect")

    monkeypatch.setattr("branchnet.experiments.finetune", broken)
    x = desk_inputs(np.random.default_rng(0), 6)
    data = Dataset(x, np.arange(6) % 2)
    cfg = TrainConfig.desk(batch_size=3, max_minibatches=1)
    with pytest.raises(TypeError, match="^a defect$"):
        branch_grid(desk_graph, warm_desk_store, [GridTask("t", "t", 2)],
                    {"t": data}, {"t": data}, cfg, master_seed=0,
                    layers=["fc"])


def recording(fn, calls):
    """fn, appending each call's result to calls."""
    def wrapper(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    return wrapper


def test_branch_grid_equals_a_per_cell_loop_over_plain_datasets(
        desk_graph, warm_desk_store, monkeypatch):
    graph, store = desk_graph, warm_desk_store
    rng = np.random.default_rng(8)

    def split(n):  # one inputs array shared by every task, as load_tasks
        x = desk_inputs(rng, n)
        labels = {"nuisance": rng.integers(0, 7, n),
                  "binary": rng.integers(0, 2, n),
                  "tags": rng.integers(0, 2, (n, 9)).astype(np.float64)}
        return {t: Dataset(x, y) for t, y in labels.items()}

    train_sets, val_sets = split(10), split(5)  # 10: not a multiple of 4
    cfg = TrainConfig.desk(batch_size=4, max_minibatches=2)
    branches, passes, starts = [], [], []

    def cell_infer(graph, store, sources, keep, start=0):
        starts.append(start)
        return infer(graph, store, sources, keep, start)

    monkeypatch.setitem(branch_grid.__globals__, "make_branch",
                        recording(make_branch, branches))
    monkeypatch.setitem(branch_grid.__globals__, "infer",
                        recording(infer, passes))
    monkeypatch.setitem(finetune.__globals__, "infer", cell_infer)
    grid = branch_grid(graph, store, TASKS, train_sets, val_sets, cfg,
                       master_seed=3)
    monkeypatch.undo()
    coords = [(layer, t) for layer in graph.branch_points for t in TASKS]
    # one prefix pass per split; a cell's only pass is its scoring, resumed
    # at its branch
    assert len(passes) == 2
    assert starts == [graph.index(layer) for layer, _ in coords]
    assert len(branches) == len(coords) == len(grid.cells)
    for (layer, task), branch in zip(coords, branches):
        seed = derive_seed(3, "grid", layer, task.name)
        alone = make_branch(graph, store, layer, task.num_classes,
                            loss=task.loss, init_std=cfg.init_std, seed=seed)
        finetune(alone, train_sets[task.name], replace(cfg, seed=seed))
        assert grid.cells[(layer, task.name)] == evaluate_accuracy(
            alone.graph, alone.store, val_sets[task.name])
        for name, flag in alone.store.trainable.items():
            if flag:
                for part in ("arrays", "momentum"):
                    got = getattr(branch.store, part)[name]
                    want = getattr(alone.store, part)[name]
                    assert got.tobytes() == want.tobytes(), (layer, task, name)
        for bn, rs in alone.store.running.items():
            got = branch.store.running[bn]
            assert (got.mean.tobytes(), got.var.tobytes(), got.count) == \
                (rs.mean.tobytes(), rs.var.tobytes(), rs.count), (layer, bn)


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
                              xv, {"offset": yv}, seed=5, budget=300)
    assert result.cells[("input", "offset")] == 1.0


def test_probe_pools_each_channel_over_the_whole_image(desk_graph,
                                                       warm_desk_store):
    # "half" images are brighter on top and as much darker below, "side"
    # ones likewise left and right, so no channel mean moves and a probe of
    # pooled "input" reads neither; pooling that kept rows or columns
    # would read one of them outright
    rng = np.random.default_rng(6)
    xt, xv = desk_inputs(rng, 24), desk_inputs(rng, 12)
    labels = [{"half": np.arange(n) % 2, "side": np.arange(n) // 2 % 2}
              for n in (24, 12)]
    for x, y in zip((xt, xv), labels):
        x[y["half"] == 1, :, :28] += 3.0
        x[y["half"] == 1, :, 28:] -= 3.0
        x[y["side"] == 1, :, :, :28] += 3.0
        x[y["side"] == 1, :, :, 28:] -= 3.0
    result = invariance_probe(desk_graph, warm_desk_store, ["input"],
                              {"half": 2, "side": 2}, xt, labels[0],
                              xv, labels[1], seed=5, budget=300)
    assert result.cells[("input", "half")] <= 0.75
    assert result.cells[("input", "side")] <= 0.75


def test_a_layer_given_twice_is_rejected(desk_graph, warm_desk_store):
    x = desk_inputs(np.random.default_rng(2), 4)
    y = np.array([0, 1, 0, 1])
    data = {"t": Dataset(x, y)}
    cfg = TrainConfig.desk(batch_size=2, max_minibatches=1)
    with pytest.raises(ValueError, match="^layer 'fc' is given twice$"):
        branch_grid(desk_graph, warm_desk_store,
                    [GridTask("t", "t", 2, "softmax")], data, data, cfg,
                    master_seed=0, layers=["conv22", "fc", "fc"])
    with pytest.raises(ValueError, match="^layer 'conv17' is given twice$"):
        invariance_probe(desk_graph, warm_desk_store,
                         ["conv17", "input", "conv17"], {"f": 2}, x,
                         {"f": y}, x, {"f": y}, seed=0, budget=1)


def test_probe_rejects_unknown_layer(desk_graph, warm_desk_store):
    rng = np.random.default_rng(1)
    x = desk_inputs(rng, 4)
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="unknown probe layer"):
        invariance_probe(desk_graph, warm_desk_store, ["conv99"],
                         {"f": 2}, x, {"f": y}, x, {"f": y}, seed=0,
                         budget=1)


@pytest.mark.parametrize("empty", ["training", "held-out"])
def test_probe_rejects_an_empty_input_array(desk_graph, warm_desk_store, empty):
    x = desk_inputs(np.random.default_rng(1), 4)
    y = np.array([0, 1, 0, 1])
    none = x[:0]
    tr, va = (none, x) if empty == "training" else (x, none)
    with pytest.raises(ValueError, match=f"needs {empty} inputs, got none"):
        invariance_probe(desk_graph, warm_desk_store, ["conv17"], {"f": 2},
                         tr, {"f": y[:len(tr)]}, va, {"f": y[:len(va)]},
                         seed=0, budget=1)


def test_probe_matrix_format(desk_graph, warm_desk_store):
    rng = np.random.default_rng(2)
    x = desk_inputs(rng, 6)
    y = np.array([0, 1, 0, 1, 0, 1])
    result = invariance_probe(desk_graph, warm_desk_store, ["input", "fc"],
                              {"f": 2}, x, {"f": y}, x, {"f": y}, seed=3,
                              budget=5)
    assert isinstance(result, GridResult) and result.columns == ("f",)
    assert format_probe_matrix is format_grid_matrix
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
                            labels, xv, val_labels, seed=8, budget=20)
    assert set(many.cells) == {(l, f) for l in layers for f in factors}
    for layer in layers:
        one = invariance_probe(desk_graph, warm_desk_store, [layer], factors,
                               xt, labels, xv, val_labels, seed=8, budget=20)
        for factor in factors:
            assert one.cells[(layer, factor)] == many.cells[(layer, factor)]


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_suite")
    return generate_synthetic(SynthSpec(num_identities=3,
                                        samples_per_identity=10,
                                        image_size=8, seed=4), str(root))


def test_load_tasks_shares_one_inputs_array(small_manifest):
    for split in ("train", "val", "all"):
        sets = load_tasks(small_manifest, TASKS, split)
        assert list(sets) == [t.name for t in TASKS]
        inputs = sets["nuisance"].inputs
        assert all(d.inputs is inputs for d in sets.values())
        x, _ = load_batch(small_manifest, split_ids(small_manifest, split))
        np.testing.assert_array_equal(inputs, x)


def test_load_tasks_reads_each_tensor_file_once(small_manifest, monkeypatch):
    reads = []
    real = dataio.read_tensor

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(dataio, "read_tensor", counting)
    load_tasks(small_manifest, TASKS, "train")
    ids = split_ids(small_manifest, "train")
    assert sorted(reads) == sorted(small_manifest.tensor_path(i) for i in ids)


def test_load_tasks_labels_equal_load_batch(small_manifest):
    # labels decode by the task's loss: a softmax task on the bitmask
    # column reads class indices
    tasks = TASKS + (GridTask("masks", "multilabel", 512),)
    for split in ("train", "val"):
        ids = split_ids(small_manifest, split)
        sets = load_tasks(small_manifest, tasks, split)
        for task in tasks:
            _, expected = load_batch(small_manifest, ids, task.label_column)
            if task.loss == "sigmoid-multilabel":
                expected = np.stack([bitmask_to_vector(int(v), task.num_classes)
                                     for v in expected])
            got = sets[task.name].labels
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
    assert sets["tags"].labels.shape == (len(ids), 9)
    assert sets["masks"].labels.shape == (len(ids),)


def test_load_tasks_rejects_no_tasks_a_repeated_name_and_an_empty_split(
        small_manifest):
    with pytest.raises(ValueError, match="^no tasks given$"):
        load_tasks(small_manifest, [], "train")
    twice = [GridTask("t", "binary", 2), GridTask("t", "nuisance", 7)]
    with pytest.raises(ValueError, match="^task name 't' is given twice$"):
        load_tasks(small_manifest, twice, "train")
    rows = [r for r in small_manifest.rows if int(r["split"]) < 8]
    train_only = Manifest(small_manifest.columns, rows, small_manifest.root)
    with pytest.raises(ValueError, match="no samples in split 'val'"):
        load_tasks(train_only, TASKS, "val")


def test_a_label_beyond_int64_names_the_id_and_the_column(small_manifest):
    rows = [dict(r) for r in small_manifest.rows]
    rows[0]["binary"] = "99999999999999999999999"
    m = Manifest(small_manifest.columns, rows, small_manifest.root)
    with pytest.raises(ValueError, match=f"^manifest id '{rows[0]['id']}': "
                                         f"binary value '9+' is not an "
                                         f"integer within int64$"):
        load_tasks(m, TASKS, "all")


# manifest text fuzz: a fixed header and tensor files; valid rows with at
# most one field (id, path, label or split) replaced by fuzzed text
SMALL = st.integers(0, 9).map(str)
ROW = st.tuples(st.sampled_from("abcdefgh"),
                st.sampled_from(["t0.tnsr", "t1.tnsr", "t2.tnsr"]),
                SMALL, SMALL, SMALL)
FUZZED = st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str),
                   st.text(alphabet="0123456789-+_ x\t\n\r.\u0663",
                           max_size=6),
                   st.text(max_size=4),
                   st.sampled_from(["wide.tnsr", "corrupt.tnsr",
                                    "missing.tnsr", ".", "a"]))
HEADER = "id\tpath\tbinary\tmultilabel\tsplit\n"
FUZZ_TASKS = (GridTask("binary", "binary", 2),
              GridTask("tags", "multilabel", 3, "sigmoid-multilabel"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest_fuzz")
    for k in range(3):
        write_tensor(root / f"t{k}.tnsr", np.full((1, 2, 2), k, np.float32))
    write_tensor(root / "wide.tnsr", np.zeros((1, 2, 3), np.float32))
    (root / "corrupt.tnsr").write_bytes(b"TNSR\x01\x03junk")
    return root


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(ROW, min_size=1, max_size=4, unique_by=lambda r: r[0]),
       edit=st.one_of(st.none(), st.tuples(st.integers(0, 3),
                                           st.integers(0, 4), FUZZED)),
       split=st.sampled_from(["train", "val", "all"]))
def test_fuzzed_manifest_text_loads_or_is_one_value_error(fuzz_dir, rows,
                                                          edit, split):
    rows = [list(r) for r in rows]
    if edit is not None:
        row, column, text = edit
        rows[row % len(rows)][column] = text
    path = fuzz_dir / "manifest.tsv"
    path.write_text(HEADER + "".join("\t".join(r) + "\n" for r in rows))
    try:
        sets = load_tasks(Manifest.load(path), FUZZ_TASKS, split)
    except ValueError:
        return
    assert list(sets) == ["binary", "tags"]
    n = len(sets["binary"])
    assert n > 0 and sets["binary"].labels.dtype == np.int64
    assert sets["tags"].labels.shape == (n, 3)
    assert sets["binary"].inputs.shape[1:] in {(1, 2, 2), (1, 2, 3)}
