import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from conftest import (apply_token_edits, edited_text, graph_token_edits, seal,
                      split_records, with_graph_text)

from branchnet.engine import forward_pass
from branchnet.graph import NODE_KINDS, ArchConfig, GraphSpec, build_trunk
from branchnet.ops import RunningStats
from branchnet.params import (ParamStore, checkpoint_bytes, fill,
                              frozen_checksum, frozen_names, load_checkpoint,
                              param_owner, param_shapes, parse_checkpoint,
                              save_checkpoint)
from branchnet.common import derive_rng
from branchnet.train import (Dataset, TrainConfig, init_params, make_branch,
                             train)

GRAPH = build_trunk(ArchConfig.desk(num_identities=5))
MiB = 2 ** 20


def fresh_store(seed=3):
    return init_params(GRAPH, TrainConfig.desk(seed=seed))


def test_param_shapes_landmarks():
    shapes = param_shapes(build_trunk(ArchConfig()))
    assert shapes["conv1/w"] == (7, 7, 3, 32)  # (k, k, in, out)
    assert "conv1/b" not in shapes
    assert shapes["conv-bn320/w"] == (1, 1, 512, 320)
    assert shapes["conv-bn320/b"] == (320,)
    assert shapes["fc/w"] == (320, 10_000)
    assert shapes["fc/b"] == (10_000,)
    assert shapes["bn1/gamma"] == (32,) and shapes["bn1/beta"] == (32,)
    assert shapes["shortcut8/w"] == (1, 1, 256, 512)
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

    store = fresh_store()
    store.trainable["conv1/w"] = False  # frozen trainable flag
    assert frozen_checksum(GRAPH, store, bidx) != base


def test_checkpoint_bytes_are_pinned():
    # seeded float32 draws and no BLAS call: the same bytes on any host
    graph = build_trunk(ArchConfig.desk())
    store = init_params(graph, TrainConfig.desk(seed=3))
    branch = make_branch(graph, store, "conv22", 7, seed=5)
    warm = make_branch(graph, store, "conv22", 7, warm=True, seed=5)

    def digest(graph, store):
        return hashlib.sha256(checkpoint_bytes(graph, store)).hexdigest()[:16]
    assert digest(graph, store) == "c3049edd93107aa5"
    assert digest(branch.graph, branch.store) == "138f125ed87ab9d4"
    assert digest(warm.graph, warm.store) == "11d29ae2174736ca"


def test_fill_draws_a_conv_weight_in_checkpoint_order():
    store = fill(GRAPH, ParamStore(), 0.1, 4, "init")
    for name in ("conv1/w", "conv4/w", "conv22/w"):
        shape = store.arrays[name].shape  # (k, k, in, out)
        drawn = derive_rng(4, "init", name).normal(
            0.0, 0.1, (shape[3], shape[2], shape[0], shape[1]))
        expected = drawn.transpose(2, 3, 1, 0).astype(np.float32)
        assert store.arrays[name].tobytes() == np.ascontiguousarray(
            expected).tobytes()


def test_fill_on_a_complete_store_adds_and_replaces_nothing():
    store = fresh_store()
    before = {slot: dict(getattr(store, slot))
              for slot in ("arrays", "momentum", "trainable", "running")}
    donor = fresh_store(seed=4)
    assert fill(GRAPH, store, 0.1, 9, "init", donor=donor) is store
    for slot, values in before.items():
        now = getattr(store, slot)
        assert now.keys() == values.keys()
        assert all(now[k] is v for k, v in values.items())


def read_records_by_hand(data):
    """Record name -> its float32 values, walked from the file layout."""
    (glen,) = struct.unpack_from("<Q", data, 8)
    off, records = 16 + glen, {}
    while off < len(data) - 8:
        (nlen,) = struct.unpack_from("<I", data, off)
        name = data[off + 4:off + 4 + nlen].decode()
        (count,) = struct.unpack_from("<Q", data, off + 4 + nlen)
        off += 12 + nlen
        records[name] = np.frombuffer(data, "<f4", count, off)
        off += 4 * count
    return records


def test_conv_records_are_written_out_in_k_k_order():
    # The store holds conv weights (k, k, in, out); a checkpoint holds
    # them (out, in, k, k), the store's array under the inverse of the
    # permutation the conv kind declares.
    store = fresh_store()
    for name, v in store.momentum.items():
        v[...] = np.arange(v.size, dtype=v.dtype).reshape(v.shape)
    records = read_records_by_hand(checkpoint_bytes(GRAPH, store))
    axes = NODE_KINDS["conv"].stored["w"]
    convs = [n for n in GRAPH.nodes if n.kind == "conv"]
    assert len(convs) == 28
    for node in convs:
        a = node.attrs
        for prefix, slot in (("a", store.arrays), ("m", store.momentum)):
            flat = records[f"{prefix}/{node.name}/w"]
            written = flat.reshape(a["out"], a["in"], a["k"], a["k"])
            held = slot[f"{node.name}/w"]
            assert held.shape == (a["k"], a["k"], a["in"], a["out"])
            assert np.transpose(written, axes).tobytes() == held.tobytes()
    _, back = parse_checkpoint(checkpoint_bytes(GRAPH, store))
    for name, arr in store.arrays.items():
        assert back.arrays[name].tobytes() == arr.tobytes()
        assert back.arrays[name].flags.c_contiguous and back.arrays[name].flags.writeable


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
    # A conv declaring 2 input channels on a 1-channel input, spliced into
    # a valid checkpoint: the graph text is read before any record.
    text = ("graph input_shape=1,8,8 branch_points=\n"
            "c conv bias=0 in={} k=3 out=2 pad=1 stride=1 inputs=input\n")
    good = GraphSpec.parse(text.format(1))
    data = checkpoint_bytes(good, init_params(good, TrainConfig.desk(seed=1)))
    graph, store = parse_checkpoint(data)
    x = np.zeros((1, 1, 8, 8), dtype=np.float32)
    assert forward_pass(graph, store, x, mode="infer")[0]["c"].shape == (1, 8, 8, 2)
    with pytest.raises(ValueError, match="node 'c' declares in=2"):
        parse_checkpoint(with_graph_text(data, text.format(2)))


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


@pytest.mark.parametrize("record", ["a/fc/b", "t/conv1/w", "rc/bn1"])
def test_a_repeated_record_is_rejected(trained_desk, record):
    data, _ = trained_desk
    head, records = split_records(data)
    i = [name for name, _ in records].index(record)
    raw = records[i][1]
    (nlen,) = struct.unpack_from("<I", raw, 0)
    again = raw[:12 + nlen] + np.ones((len(raw) - 12 - nlen) // 4, "<f4").tobytes()
    twice = records[:i + 1] + [(record, again)] + records[i + 1:]
    with pytest.raises(ValueError, match=f"checkpoint repeats record '{record}'"):
        parse_checkpoint(seal(head, twice))


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


def _with_count(raw, count):
    """A record's bytes with its element count field replaced."""
    (nlen,) = struct.unpack_from("<I", raw, 0)
    return raw[:4 + nlen] + struct.pack("<Q", count) + raw[12 + nlen:]


def test_lengths_past_the_checksum_are_value_errors(trained_desk):
    data, _ = trained_desk
    head, records = split_records(data)
    i = [name for name, _ in records].index("a/fc/b")
    off = len(head) + sum(len(raw) for _, raw in records[:i])
    for count in (2**63 + 5, 2**64 - 1, 2**62):
        bad = records[:i] + [("a/fc/b", _with_count(records[i][1], count))]
        with pytest.raises(ValueError, match=f"'a/fc/b' runs past the checksum "
                                             f"\\({count} elements\\)"):
            parse_checkpoint(seal(head, bad + records[i + 1:]))
    raw = records[i][1]
    long_name = struct.pack("<I", 2**32 - 1) + raw[4:]
    with pytest.raises(ValueError, match=f"record name at offset {off} runs past"):
        parse_checkpoint(seal(head, records[:i] + [("a/fc/b", long_name)]))
    with pytest.raises(ValueError, match=f"record name at offset {off} runs past"):
        parse_checkpoint(seal(head, records[:i] + [("a/fc/b", raw[:6])]))
    graph_len = head[:8] + struct.pack("<Q", 2**63) + head[16:]
    with pytest.raises(ValueError, match="graph text of 9223372036854775808 "
                                         "bytes runs past the checksum"):
        parse_checkpoint(seal(graph_len, records))


@pytest.mark.parametrize("value", [0.5, np.nan, 2.0, -1.0, np.inf])
def test_trainable_flag_must_be_exactly_zero_or_one(trained_desk, value):
    data, _ = trained_desk
    head, records = split_records(data)
    flag = [(name, raw[:-4] + struct.pack("<f", value) if name == "t/conv1/w"
             else raw) for name, raw in records]
    with pytest.raises(ValueError, match="'t/conv1/w' holds .*, not a trainable "
                                         "flag of 0 or 1"):
        parse_checkpoint(seal(head, flag))


def test_trainable_flags_of_zero_and_one_load(trained_desk):
    data, _ = trained_desk
    head, records = split_records(data)
    flags = [(name, raw[:-4] + struct.pack("<f", -0.0) if name == "t/fc/b"
              else raw) for name, raw in records]
    _, store = parse_checkpoint(seal(head, flags))
    assert store.trainable["fc/b"] is False and store.trainable["fc/w"] is True


@pytest.mark.parametrize("value", [0.5, 1.5, 3.25, np.nan, np.inf])
def test_running_count_must_be_a_whole_number(trained_desk, value):
    data, _ = trained_desk
    head, records = split_records(data)
    count = [(name, raw[:-4] + struct.pack("<f", value) if name == "rc/bn2"
              else raw) for name, raw in records]
    with pytest.raises(ValueError, match="'rc/bn2' holds .*, not a count >= 0 "
                                         "that is a whole number"):
        parse_checkpoint(seal(head, count))
    whole = [(name, raw[:-4] + struct.pack("<f", 2.0) if name == "rc/bn2"
              else raw) for name, raw in records]
    assert parse_checkpoint(seal(head, whole))[1].running["bn2"].count == 2


def test_a_running_count_float32_cannot_hold_is_rejected_at_save(tmp_path):
    store = fresh_store()
    rs = store.running["bn320"]
    store.running["bn320"] = RunningStats(rs.mean, rs.var, 2**24)
    _, loaded = parse_checkpoint(checkpoint_bytes(GRAPH, store))
    assert loaded.running["bn320"].count == 2**24
    path = tmp_path / "desk.ckpt"
    save_checkpoint(path, GRAPH, store)
    saved = path.read_bytes()
    store.running["bn320"] = RunningStats(rs.mean, rs.var, 2**24 + 1)
    for refuse in (lambda: checkpoint_bytes(GRAPH, store),
                   lambda: save_checkpoint(path, GRAPH, store)):
        with pytest.raises(ValueError, match="batchnorm 'bn320' has a running "
                                             r"count of 16777217, above the 2\^24"):
            refuse()
    # the refused store leaves the file it was saved over as it was
    assert path.read_bytes() == saved


# graph-text fuzz inside a checkpoint: the trained desk checkpoint, weights
# only, with its graph text edited and the file re-sealed; it loads a model
# that runs, or it is one ValueError
DESK_TEXT = GRAPH.serialize()


def test_a_pool_that_declares_another_window_is_rejected_at_load(trained_desk):
    data, _ = trained_desk
    text = DESK_TEXT.replace("pool1 maxpool k=2", "pool1 maxpool k=3")
    assert text != DESK_TEXT
    with pytest.raises(ValueError, match="maxpool node 'pool1' needs attribute "
                                         "'k' to be 2, got 3"):
        parse_checkpoint(with_graph_text(data, text))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=graph_token_edits(DESK_TEXT))
@example(edits=[(GRAPH.index("conv-bn320") + 1, 1, "fc")])  # bn320 over an fc
def test_fuzzed_graph_text_in_a_checkpoint_runs_or_is_one_value_error(
        trained_desk, edits):
    data, x = trained_desk
    text = apply_token_edits(DESK_TEXT, edits)
    try:
        graph, store = parse_checkpoint(with_graph_text(data, text))
    except ValueError:
        return
    forward_pass(graph, store, x, mode="infer")


def test_a_branch_point_after_the_classifier_is_rejected_at_load(desk_graph,
                                                                 desk_store):
    # a branch there would freeze the trunk's 20-way fc into a 7-way head
    late = edited_text(desk_graph, ("\nsoftmax softmax-head inputs=fc",
                                    "\ndead relu inputs=fc\n"
                                    "softmax softmax-head inputs=fc"),
                       (",fc\n", ",fc,dead\n"))
    assert "branch_points=conv17,conv19,conv21,conv22,conv-bn320,fc,dead\n" in late
    data = checkpoint_bytes(desk_graph, desk_store)
    with pytest.raises(ValueError, match="branch point 'dead' comes after the "
                                         "classifier 'fc'"):
        parse_checkpoint(with_graph_text(data, late))
    # the classifier itself stays a branch point
    parse_checkpoint(data)


# streamed reading and writing: one copy, errors that name the file

def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw) of fn(*args)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_io_holds_one_copy_of_each_record(tmp_path, desk_graph,
                                                     desk_store):
    path = tmp_path / "trunk.ckpt"
    _, peak = traced_peak(save_checkpoint, path, desk_graph, desk_store)
    largest = max(a.nbytes for a in desk_store.arrays.values())
    assert peak <= largest + MiB, (peak, largest)
    assert path.stat().st_size > 3 * MiB  # the whole file never in memory

    (graph, store), peak = traced_peak(load_checkpoint, path)
    kept = sum(a.nbytes for table in (store.arrays, store.momentum)
               for a in table.values())
    kept += sum(rs.mean.nbytes + rs.var.nbytes for rs in store.running.values())
    assert peak <= kept + largest + MiB, (peak, kept)
    assert checkpoint_bytes(graph, store) == path.read_bytes()


# a checkpoint small enough to cut and corrupt at every byte: a conv, its
# batchnorm and the head, with momentum
SMALL = GraphSpec.parse(
    "graph input_shape=1,4,4 branch_points=c\n"
    "c conv bias=1 in=1 k=3 out=2 pad=1 stride=1 inputs=input\n"
    "bn batchnorm ch=2 eps=1e-05 inputs=c\n"
    "fc fc in=32 out=3 inputs=bn\n"
    "softmax softmax-head inputs=fc\n")
SMALL_DATA = checkpoint_bytes(SMALL, init_params(SMALL, TrainConfig.desk(seed=1)))


def test_a_truncated_checkpoint_is_one_value_error_naming_it(tmp_path,
                                                             trained_desk):
    assert parse_checkpoint(SMALL_DATA)[0] == SMALL
    # every cut of the small file: each record boundary and inside each
    # record; the desk file at the boundaries and middles of its first and
    # last records, conv weights among them
    data, _ = trained_desk
    head, records = split_records(data)
    starts = [len(head)]
    for _, raw in records:
        starts.append(starts[-1] + len(raw))
    desk_cuts = {cut for at in starts[:12] + starts[-12:]
                 for cut in (at, at + 6, at - 9)}
    path = tmp_path / "cut.ckpt"
    for whole, cuts in ((SMALL_DATA, range(len(SMALL_DATA))),
                        (data, sorted(desk_cuts))):
        for cut in cuts:
            path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match=f"^{path}: ") as exc:
                load_checkpoint(path)
            assert exc.type is ValueError, cut


def test_a_flipped_byte_is_a_checksum_mismatch_wherever_it_lands():
    for at in range(len(SMALL_DATA)):
        flipped = bytearray(SMALL_DATA)
        flipped[at] ^= 0x80
        message = "bad magic" if at < 4 else "checksum mismatch"
        with pytest.raises(ValueError, match=message):
            parse_checkpoint(bytes(flipped))


def test_a_partial_record_set_starts_at_its_declared_node(trained_desk):
    data, _ = trained_desk
    graph, store = parse_checkpoint(data)
    suffix = checkpoint_bytes(graph, store, start="conv22")
    assert len(suffix) < len(data) // 2
    g2, part = parse_checkpoint(suffix, start="conv22")
    assert g2 == graph
    want = {n for n in store.arrays
            if graph.index(param_owner(n)) >= graph.index("conv22")}
    assert part.arrays.keys() == part.momentum.keys() == want
    assert part.running.keys() == {bn for bn in store.running
                                   if graph.index(bn) > graph.index("conv22")}
    for name in want:
        assert part.arrays[name].tobytes() == store.arrays[name].tobytes()
    # a partial file is only read as one, from its own start node
    with pytest.raises(ValueError, match="lacks record 'a/conv1/w'"):
        parse_checkpoint(suffix)
    with pytest.raises(ValueError, match="lacks record 'a/conv21/w'"):
        parse_checkpoint(suffix, start="conv21")
    with pytest.raises(ValueError, match="record 'a/bn22/beta' belongs to a "
                                         "node before its start node 'fc'"):
        parse_checkpoint(suffix, start="fc")
    with pytest.raises(ValueError, match="start node 'nowhere' names no node"):
        parse_checkpoint(suffix, start="nowhere")
    # every record from the start on is still required
    head, records = split_records(suffix)
    kept = [r for r in records if r[0] != "rv/bn23"]
    with pytest.raises(ValueError, match="lacks record 'rv/bn23'"):
        parse_checkpoint(seal(head, kept), start="conv22")
    assert parse_checkpoint(checkpoint_bytes(graph, store, start="conv1"),
                            start="conv1")[1].arrays.keys() == store.arrays.keys()
