import struct

import numpy as np
import pytest

from branchnet.engine import forward_pass
from branchnet.graph import ArchConfig, GraphSpec, build_trunk
from branchnet.ops import RunningStats
from branchnet.params import (checkpoint_bytes, frozen_checksum, frozen_names,
                              load_checkpoint, param_owner, param_shapes,
                              parse_checkpoint, save_checkpoint)
from branchnet.common import checksum64
from branchnet.train import Dataset, TrainConfig, init_params, train

GRAPH = build_trunk(ArchConfig.desk(num_identities=5))


def fresh_store(seed=3):
    return init_params(GRAPH, TrainConfig.desk(seed=seed))


def test_param_shapes_landmarks():
    shapes = param_shapes(build_trunk(ArchConfig.canonical()))
    assert shapes["conv1/w"] == (32, 3, 7, 7)
    assert "conv1/b" not in shapes
    assert shapes["conv-bn320/w"] == (320, 512, 1, 1)
    assert shapes["conv-bn320/b"] == (320,)
    assert shapes["fc/w"] == (320, 10_000)
    assert shapes["fc/b"] == (10_000,)
    assert shapes["bn1/gamma"] == (32,) and shapes["bn1/beta"] == (32,)
    assert shapes["shortcut8/w"] == (512, 256, 1, 1)
    assert "shortcut8/b" not in shapes
    assert param_owner("conv-bn320/w") == "conv-bn320"


def test_frozen_names_partition_by_index():
    bidx = GRAPH.index("conv-bn320")
    frozen = frozen_names(GRAPH, bidx)
    assert list(frozen) == sorted(frozen)
    assert "conv1/w" in frozen and "bn1/gamma" in frozen
    assert "conv-bn320/w" not in frozen and "fc/w" not in frozen
    all_names = frozen_names(GRAPH, len(GRAPH.nodes))
    assert set(all_names) == set(param_shapes(GRAPH))


def test_frozen_checksum_tracks_only_the_frozen_region():
    store = fresh_store()
    bidx = GRAPH.index("conv-bn320")
    base = frozen_checksum(GRAPH, store, bidx)
    assert base == frozen_checksum(GRAPH, store, bidx)

    store.arrays["fc/w"][0, 0] += 1.0  # retrained region
    assert frozen_checksum(GRAPH, store, bidx) == base
    store.arrays["conv1/w"][0, 0, 0, 0] += 1.0  # frozen param
    assert frozen_checksum(GRAPH, store, bidx) != base

    store = fresh_store()
    store.momentum["conv2/w"][0, 0, 0, 0] = 5.0  # frozen momentum
    assert frozen_checksum(GRAPH, store, bidx) != base

    store = fresh_store()
    store.running["bn1"].mean[0] += 1.0  # frozen running stats
    assert frozen_checksum(GRAPH, store, bidx) != base


def test_checkpoint_round_trip(tmp_path):
    store = fresh_store()
    store.trainable["conv1/w"] = False
    old = store.running["bn1"]
    store.running["bn1"] = RunningStats(old.mean + 0.5, old.var * 2.0, 7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GRAPH, store)
    graph2, store2 = load_checkpoint(path)
    assert graph2.serialize() == GRAPH.serialize()
    assert set(store2.arrays) == set(store.arrays)
    for name in store.arrays:
        np.testing.assert_array_equal(store2.arrays[name], store.arrays[name])
        np.testing.assert_array_equal(store2.momentum[name], store.momentum[name])
        assert store2.trainable[name] == store.trainable[name]
    for bn in store.running:
        np.testing.assert_array_equal(store2.running[bn].mean, store.running[bn].mean)
        np.testing.assert_array_equal(store2.running[bn].var, store.running[bn].var)
        assert store2.running[bn].count == store.running[bn].count


def test_checkpoint_bytes_are_deterministic():
    store = fresh_store()
    assert checkpoint_bytes(GRAPH, store) == checkpoint_bytes(GRAPH, store.copy())


def test_checkpoint_corruption_is_detected():
    data = bytearray(checkpoint_bytes(GRAPH, fresh_store()))
    data[50] ^= 0x01
    with pytest.raises(ValueError, match="checksum mismatch"):
        parse_checkpoint(bytes(data))
    with pytest.raises(ValueError, match="bad magic"):
        parse_checkpoint(b"XXXX" + bytes(data[4:]))
    with pytest.raises(ValueError, match="bad magic"):
        parse_checkpoint(b"CK")


def test_checkpoint_version_gate():
    from branchnet.common import checksum64
    data = bytearray(checkpoint_bytes(GRAPH, fresh_store()))
    data[4] = 9
    body = bytes(data[:-8])
    with pytest.raises(ValueError, match="version 9"):
        parse_checkpoint(body + checksum64(body))


def test_checkpoint_rejects_unknown_parameter():
    store = fresh_store()
    store.arrays["conv99/w"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
    store.momentum["conv99/w"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
    store.trainable["conv99/w"] = True
    with pytest.raises(ValueError, match="unknown parameter 'conv99/w'"):
        parse_checkpoint(checkpoint_bytes(GRAPH, store))


def test_checkpoint_rejects_element_count_mismatch():
    store = fresh_store()
    store.arrays["fc/b"] = np.zeros(3, dtype=np.float32)  # graph expects 5
    with pytest.raises(ValueError, match="elements"):
        parse_checkpoint(checkpoint_bytes(GRAPH, store))


def test_checkpoint_whose_graph_cannot_run_is_rejected_at_load():
    # A conv declaring 2 input channels on a 1-channel input: the store is
    # consistent with the declared shapes, only the graph itself is not.
    text = ("graph input_shape=1,8,8 branch_points=\n"
            "c conv bias=0 in={} k=3 out=2 pad=1 stride=1 inputs=input\n")
    good = GraphSpec.parse(text.format(1))
    graph, store = parse_checkpoint(checkpoint_bytes(
        good, init_params(good, TrainConfig.desk(seed=1))))
    x = np.zeros((1, 1, 8, 8), dtype=np.float32)
    assert forward_pass(graph, store, x, mode="infer")[0]["c"].shape == (1, 2, 8, 8)
    bad = GraphSpec.parse(text.format(2))
    data = checkpoint_bytes(bad, init_params(bad, TrainConfig.desk(seed=1)))
    with pytest.raises(ValueError, match="node 'c' declares in=2"):
        parse_checkpoint(data)


def split_records(data):
    """(head bytes, [(record name, record bytes)]) of a checkpoint."""
    (glen,) = struct.unpack_from("<Q", data, 8)
    off = 16 + glen
    head, records = data[:off], []
    while off < len(data) - 8:
        (nlen,) = struct.unpack_from("<I", data, off)
        (count,) = struct.unpack_from("<Q", data, off + 4 + nlen)
        end = off + 12 + nlen + 4 * count
        records.append((data[off + 4:off + 4 + nlen].decode(), data[off:end]))
        off = end
    return head, records


def seal(head, records):
    body = head + b"".join(raw for _, raw in records)
    return body + checksum64(body)


@pytest.fixture(scope="module")
def trained_desk():
    """A desk checkpoint after a few SGD steps: momentum and running
    statistics hold values no fresh store has."""
    store = fresh_store(seed=4)
    rng = np.random.default_rng(6)
    data = Dataset(rng.standard_normal((16, 1, 56, 56)).astype(np.float32),
                   rng.integers(0, 5, size=16))
    train(GRAPH, store, data, TrainConfig.desk(seed=2, batch_size=8,
                                               max_minibatches=3))
    return checkpoint_bytes(GRAPH, store), data.inputs[:2]


def test_every_drop_one_variant_is_rejected_or_runs(trained_desk):
    data, x = trained_desk
    head, records = split_records(data)
    assert seal(head, records) == data
    bns = [n for n in GRAPH.nodes if n.kind == "batchnorm"]
    assert len(records) == 3 * len(param_shapes(GRAPH)) + 3 * len(bns)
    loaded = 0
    for i, (name, _) in enumerate(records):
        try:
            graph, store = parse_checkpoint(seal(head, records[:i] + records[i + 1:]))
        except ValueError as exc:
            assert name in str(exc) or "lacks record" in str(exc), (name, exc)
            continue
        forward_pass(graph, store, x, mode="infer")
        loaded += 1
    assert loaded == 0


def test_momentum_records_cover_every_parameter_or_none(trained_desk):
    data, x = trained_desk
    head, records = split_records(data)
    kept = [r for r in records if not r[0].startswith("m/")]
    graph, store = parse_checkpoint(seal(head, kept))
    assert store.momentum == {}
    forward_pass(graph, store, x, mode="infer")
    one = [r for r in records if r[0] != "m/fc/w"]
    with pytest.raises(ValueError, match="lacks record 'm/fc/w'"):
        parse_checkpoint(seal(head, one))


def test_running_statistics_cover_every_batchnorm_node_or_none(trained_desk):
    data, x = trained_desk
    head, records = split_records(data)
    kept = [r for r in records if not r[0].startswith("r")]
    graph, store = parse_checkpoint(seal(head, kept))
    assert store.running == {}
    forward_pass(graph, store, x, mode="train")
    one_node = [r for r in records if not r[0].endswith("/bn320")]
    with pytest.raises(ValueError, match="lacks record 'r[mvc]/bn320'"):
        parse_checkpoint(seal(head, one_node))


def test_record_sizes_and_owners_are_checked():
    def stray_flag(s):
        s.trainable["nowhere/w"] = True

    def negative_count(s):
        rs = s.running["bn1"]
        s.running["bn1"] = RunningStats(rs.mean, rs.var, -1)

    def short_mean(s):
        s.running["bn2"] = RunningStats(np.zeros(3, np.float32),
                                        s.running["bn2"].var, 1)

    def stats_on_relu(s):
        s.running["relu1"] = s.running["bn1"]

    cases = ((stray_flag, "unknown parameter 'nowhere/w'"),
             (negative_count, "'rc/bn1' holds -1.0, not a count"),
             (short_mean, "'rm/bn2' has 3 elements, graph expects"),
             (stats_on_relu, "unknown batchnorm node 'relu1'"))
    for change, message in cases:
        store = fresh_store()
        change(store)
        with pytest.raises(ValueError, match=message):
            parse_checkpoint(checkpoint_bytes(GRAPH, store))


@pytest.mark.parametrize("record", ["a/conv1/w", "m/fc/b", "rm/bn1", "rv/bn320"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected_at_load(record, value):
    store = fresh_store()
    kind, _, name = record.partition("/")
    target = {"a": lambda: store.arrays[name], "m": lambda: store.momentum[name],
              "rm": lambda: store.running[name].mean,
              "rv": lambda: store.running[name].var}[kind]()
    target.reshape(-1)[-1] = value
    with pytest.raises(ValueError, match=f"'{record}' holds a non-finite value"):
        parse_checkpoint(checkpoint_bytes(GRAPH, store))


def test_negative_running_variance_is_rejected_at_load():
    store = fresh_store()
    store.running["bn2"].var[1] = -1e-3
    with pytest.raises(ValueError, match="'rv/bn2' holds a negative variance"):
        parse_checkpoint(checkpoint_bytes(GRAPH, store))
    store.running["bn2"].var[1] = -0.0  # a zero variance, whatever its sign
    parse_checkpoint(checkpoint_bytes(GRAPH, store))
