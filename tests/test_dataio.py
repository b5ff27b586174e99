import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet.dataio import (TENSOR_MAGIC, TENSOR_VERSION, Manifest,
                              SynthSpec, bitmask_to_vector, generate_synthetic,
                              identity_glyph, load_batch, load_labels,
                              nuisance_pattern, parse_tensor, read_tensor,
                              split_ids, tensor_bytes, write_tensor)
from conftest import checksum64, traced_peak, write_unchecked_tensor

KiB = 2 ** 10


# tensor container


@pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 5, 5), (2, 3, 4, 5)])
def test_tensor_round_trip_bitwise(tmp_path, shape):
    arr = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    path = tmp_path / "t.tnsr"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32 and back.shape == arr.shape
    np.testing.assert_array_equal(back, arr)
    # serialization is a pure function of the array
    assert tensor_bytes(arr) == tensor_bytes(arr.copy())


def test_tensor_corruption_is_detected():
    data = bytearray(tensor_bytes(np.arange(6, dtype=np.float32).reshape(2, 3)))
    data[10] ^= 0xFF
    with pytest.raises(ValueError, match="checksum mismatch"):
        parse_tensor(bytes(data))


def test_tensor_truncation_and_bad_magic():
    good = tensor_bytes(np.zeros(4, dtype=np.float32))
    with pytest.raises(ValueError, match="bad magic"):
        parse_tensor(b"JUNK" + good[4:])
    with pytest.raises(ValueError, match="checksum|length"):
        parse_tensor(good[:-9] + good[-8:])
    with pytest.raises(ValueError, match="bad magic"):
        parse_tensor(good[:6])


def test_tensor_version_gate():
    data = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32)))
    data[4] = 9
    fixed = bytes(data[:-8])
    with pytest.raises(ValueError, match="version 9"):
        parse_tensor(fixed + checksum64(fixed))


@pytest.mark.parametrize("rank", [5, 6, 255])
def test_tensor_rank_beyond_the_body_is_a_value_error(rank):
    # A re-sealed 18-byte body declaring more dims than it can hold; from
    # rank 6 on the dims run past the end of the whole container.
    body = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32))[:-8])
    assert len(body) == 18
    body[5] = rank
    with pytest.raises(ValueError, match=f"cannot hold the dims of a rank-{rank}"):
        parse_tensor(bytes(body) + checksum64(bytes(body)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_payload_is_a_value_error_naming_the_container(
        tmp_path, value):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    arr[1, 2] = value
    path = tmp_path / "scores.tnsr"
    write_unchecked_tensor(path, arr)
    with pytest.raises(ValueError, match=f"^{path}: holds a non-finite value$"):
        read_tensor(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "-inf", "1e39"])
def test_a_non_finite_array_is_refused_at_write(tmp_path, value):
    # 1e39 is finite as a float64 and inf once cast to float32
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    arr[0, 1] = value
    with pytest.raises(ValueError, match="non-finite value as float32"):
        tensor_bytes(arr)
    path = tmp_path / "refused.tnsr"
    with pytest.raises(ValueError, match="non-finite value as float32"):
        write_tensor(path, arr)
    assert not path.exists()


def test_read_tensor_names_the_file_in_errors(tmp_path):
    path = tmp_path / "broken.tnsr"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError, match="broken.tnsr"):
        read_tensor(path)


def test_an_extent_the_header_cannot_hold_is_refused_at_write(tmp_path):
    arr = np.zeros((2 ** 32, 0), np.float32)  # dims are u32
    with pytest.raises(ValueError, match="exceeds the container's limits"):
        tensor_bytes(arr)
    path = tmp_path / "refused.tnsr"
    with pytest.raises(ValueError, match="exceeds the container's limits"):
        write_tensor(path, arr)
    assert not path.exists()


def test_dims_whose_product_wraps_in_int64_are_an_error_naming_the_file(
        tmp_path):
    # 2^31 * 2^31 * 4 elements wrap to 0 in int64, as many as the payload
    body = TENSOR_MAGIC + struct.pack("<BB3I", TENSOR_VERSION, 3, 2 ** 31,
                                      2 ** 31, 4)
    path = tmp_path / "wrapped.tnsr"
    path.write_bytes(body + checksum64(body))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: payload "
                                         f"of 0 bytes does not match dims"):
        read_tensor(path)


@pytest.mark.parametrize("shape", [(), (3,), (2, 0), (1, 5, 5), (2, 3, 4, 5)])
def test_tensor_bytes_are_the_hand_built_container(tmp_path, shape):
    arr = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
    path = tmp_path / "hand.tnsr"
    write_unchecked_tensor(path, arr)
    assert tensor_bytes(arr) == path.read_bytes()


# a container small enough to cut and corrupt at every byte
SMALL_TENSOR = tensor_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))


def test_a_truncated_tensor_container_is_one_value_error_naming_it(tmp_path):
    path = tmp_path / "cut.tnsr"
    for cut in range(len(SMALL_TENSOR)):
        path.write_bytes(SMALL_TENSOR[:cut])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as exc:
            read_tensor(path)
        assert exc.type is ValueError, cut


def test_a_flipped_tensor_byte_is_a_checksum_mismatch_wherever_it_lands(
        tmp_path):
    path = tmp_path / "flipped.tnsr"
    for at in range(len(SMALL_TENSOR)):
        flipped = bytearray(SMALL_TENSOR)
        flipped[at] ^= 0x80
        path.write_bytes(flipped)
        message = "bad magic" if at < 4 else "checksum mismatch"
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: .*{message}"):
            read_tensor(path)


def test_tensor_io_holds_no_second_copy(tmp_path):
    arr = np.random.default_rng(2).standard_normal((4, 256, 256)).astype(
        np.float32)  # 1 MiB
    path = tmp_path / "big.tnsr"
    _, peak = traced_peak(write_tensor, path, arr)
    assert peak <= 64 * KiB, peak
    back, peak = traced_peak(read_tensor, path)
    np.testing.assert_array_equal(back, arr)
    assert peak <= back.nbytes + 64 * KiB, (peak, back.nbytes)


# manifest


def sample_manifest(tmp_path, n=4):
    rows = []
    for i in range(n):
        arr = np.full((1, 2, 2), float(i), dtype=np.float32)
        rel = f"{i}.tnsr"
        write_tensor(tmp_path / rel, arr)
        rows.append({"id": f"s{i}", "path": rel, "identity": str(i % 2),
                     "split": str(i * 10 // n)})
    return Manifest(("id", "path", "identity", "split"), rows,
                    root=str(tmp_path))


def test_manifest_round_trip(tmp_path):
    m = sample_manifest(tmp_path)
    p = tmp_path / "manifest.tsv"
    m.save(p)
    back = Manifest.load(p)
    assert back.columns == m.columns
    assert back.rows == m.rows
    assert back.ids == ["s0", "s1", "s2", "s3"]
    assert back.to_text() == m.to_text()
    assert os.path.samefile(back.root, tmp_path)


def test_manifest_validation():
    with pytest.raises(ValueError, match="required column 'path'"):
        Manifest(("id",), [])
    rows = [{"id": "a", "path": "x"}, {"id": "a", "path": "y"}]
    with pytest.raises(ValueError, match="duplicate manifest id 'a'"):
        Manifest(("id", "path"), rows)


def test_manifest_load_rejects_a_repeated_column(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\tpath\tidentity\tidentity\na\tx\t0\t1\n")
    with pytest.raises(ValueError, match="duplicate manifest column 'identity'"):
        Manifest.load(p)


def test_manifest_load_rejects_ragged_rows(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\tpath\na\tx\textra\n")
    with pytest.raises(ValueError, match="fields"):
        Manifest.load(p)
    (tmp_path / "empty.tsv").write_text("")
    with pytest.raises(ValueError, match="empty"):
        Manifest.load(tmp_path / "empty.tsv")


def test_a_short_manifest_row_names_the_file_and_its_line(tmp_path):
    p = tmp_path / "m.tsv"
    # line 3 is blank and skipped, yet it counts toward the line number
    p.write_text("id\tpath\tidentity\na\tx\t0\n\nb\ty\n")
    with pytest.raises(ValueError) as exc:
        Manifest.load(p)
    assert str(exc.value) == (f"{p}:4: manifest row has 2 fields, header "
                              f"declares 3: 'b\\ty'")


def test_label_errors_name_column_and_id(tmp_path):
    m = sample_manifest(tmp_path)
    with pytest.raises(ValueError, match="'nuisance'.*'s0'"):
        m.label("s0", "nuisance")
    with pytest.raises(KeyError, match="no id 'zz'"):
        m.row("zz")


def test_load_batch_stacks_in_given_order(tmp_path):
    m = sample_manifest(tmp_path)
    batch, labels = load_batch(m, ["s2", "s0", "s3"], label_column="identity")
    assert batch.shape == (3, 1, 2, 2)
    np.testing.assert_array_equal(batch[:, 0, 0, 0], [2.0, 0.0, 3.0])
    np.testing.assert_array_equal(labels, [0, 0, 1])
    batch2, labels2 = load_batch(m, ["s0"], label_column=None)
    assert batch2.shape == (1, 1, 2, 2) and labels2 is None


def test_load_batch_errors(tmp_path):
    m = sample_manifest(tmp_path)
    os.remove(m.tensor_path("s1"))
    with pytest.raises(ValueError, match="failed to load id 's1'"):
        load_batch(m, ["s0", "s1"])
    with pytest.raises(ValueError, match="at least one id"):
        load_batch(m, [])


def test_load_batch_names_the_first_tensor_of_another_shape(tmp_path):
    m = sample_manifest(tmp_path)
    write_tensor(m.tensor_path("s2"), np.zeros((1, 2, 3), np.float32))
    with pytest.raises(ValueError, match=r"inconsistent tensor shapes in "
                       r"batch: id 's2' has \(1, 2, 3\), id 's0' has \(1, 2, 2\)"):
        load_batch(m, ["s0", "s1", "s2", "s3"])


def test_load_batch_holds_the_batch_once(tmp_path):
    # 64 desk-sized tensors: the batch plus one tensor in flight, not a
    # list of every tensor beside the stacked copy
    rows = []
    for i in range(64):
        write_tensor(tmp_path / f"{i}.tnsr", np.full((1, 56, 56), i, np.float32))
        rows.append({"id": f"s{i}", "path": f"{i}.tnsr"})
    m = Manifest(("id", "path"), rows, root=str(tmp_path))
    (batch, _), peak = traced_peak(load_batch, m, m.ids)
    assert [row[0, 0, 0] for row in batch] == list(range(64))
    assert peak < batch.nbytes + 3 * batch[0].nbytes + 64 * KiB


def test_split_ids_deciles(tmp_path):
    m = sample_manifest(tmp_path)  # splits 0, 2, 5, 7 -> all train
    assert split_ids(m, "train") == ["s0", "s1", "s2", "s3"]
    assert split_ids(m, "val") == []
    assert split_ids(m, "all") == m.ids
    with pytest.raises(ValueError, match="unknown split"):
        split_ids(m, "test")
    bare = Manifest(("id", "path"), [{"id": "a", "path": "x"}])
    with pytest.raises(ValueError, match="no split column"):
        split_ids(bare, "train")


# tensor container fuzz: up to three header bytes (magic, version, rank,
# dims) overwritten and the body cut short, then re-sealed; it parses into
# the array its header declares, or it is one ValueError
TENSOR_BODY = tensor_bytes(np.arange(24, dtype=np.float32).reshape(2, 3, 4))[:-8]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(header=st.lists(st.tuples(st.integers(0, 17), st.integers(0, 255)),
                       max_size=3),
       keep=st.one_of(st.none(), st.integers(0, len(TENSOR_BODY))))
def test_fuzzed_tensor_header_and_length_parse_or_are_one_value_error(header,
                                                                      keep):
    body = bytearray(TENSOR_BODY[:keep])
    for offset, value in header:
        if offset < len(body):
            body[offset] = value
    try:
        arr = parse_tensor(bytes(body) + checksum64(bytes(body)))
    except ValueError:
        return
    assert arr.dtype == np.float32 and arr.ndim == body[5]
    assert arr.shape == struct.unpack_from(f"<{arr.ndim}I", body, 6)
    assert 6 + 4 * arr.ndim + 4 * arr.size == len(body)


# bitmask helpers


def test_bitmask_vector_round_trip():
    vec = bitmask_to_vector(0b101000011, 9)
    np.testing.assert_array_equal(vec, [1, 1, 0, 0, 0, 0, 1, 0, 1])
    assert sum(1 << j for j, v in enumerate(vec) if v >= 0.5) == 0b101000011
    for mask in range(16):
        vec = bitmask_to_vector(mask, 4)
        assert sum(1 << j for j, v in enumerate(vec) if v >= 0.5) == mask
    with pytest.raises(ValueError, match="does not fit"):
        bitmask_to_vector(16, 4)


# synthetic suite


def test_synthetic_generation_is_byte_identical(tmp_path):
    spec = SynthSpec(num_identities=3, samples_per_identity=10, seed=5)
    m1 = generate_synthetic(spec, tmp_path / "a")
    m2 = generate_synthetic(spec, tmp_path / "b")
    text1 = (tmp_path / "a" / "manifest.tsv").read_bytes()
    text2 = (tmp_path / "b" / "manifest.tsv").read_bytes()
    assert text1 == text2
    for sample_id in m1.ids:
        rel = m1.row(sample_id)["path"]
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()
    m3 = generate_synthetic(SynthSpec(num_identities=3, samples_per_identity=10,
                                      seed=6), tmp_path / "c")
    assert (tmp_path / "c" / m3.row(m3.ids[0])["path"]).read_bytes() != \
        (tmp_path / "a" / m1.row(m1.ids[0])["path"]).read_bytes()


def test_synthetic_corpus_structure(tmp_path):
    spec = SynthSpec(num_identities=4, samples_per_identity=10, seed=1)
    m = generate_synthetic(spec, tmp_path)
    assert len(m.ids) == 40
    assert len(set(m.ids)) == 40
    per_identity = {}
    for i in m.ids:
        row = m.row(i)
        per_identity.setdefault(row["identity"], []).append(row)
        assert int(row["binary"]) == int(row["identity"]) % 2
        assert 0 <= int(row["multilabel"]) < 2 ** 9
        assert 0 <= int(row["nuisance"]) < 7
    assert {len(v) for v in per_identity.values()} == {10}
    # spi=10 makes the split column the sample index: every decile occupied
    splits = sorted(int(m.row(i)["split"]) for i in m.ids if m.row(i)["identity"] == "0")
    assert splits == list(range(10))
    train, val = split_ids(m, "train"), split_ids(m, "val")
    assert len(train) == 32 and len(val) == 8
    assert set(train) | set(val) == set(m.ids)


def test_synthetic_images_have_declared_geometry(tmp_path):
    spec = SynthSpec(num_identities=2, samples_per_identity=3, image_size=24,
                     seed=2)
    m = generate_synthetic(spec, tmp_path)
    batch, labels = load_batch(m, m.ids[:3], label_column="identity")
    assert batch.shape == (3, 1, 24, 24)
    assert batch.dtype == np.float32
    np.testing.assert_array_equal(labels, [0, 0, 0])


def test_noise_free_single_level_images_repeat_exactly(tmp_path):
    spec = SynthSpec(num_identities=2, samples_per_identity=4,
                     nuisance_levels=1, noise_std=0.0, seed=3)
    m = generate_synthetic(spec, tmp_path)
    ids0 = [i for i in m.ids if m.row(i)["identity"] == "0"]
    images = [read_tensor(m.tensor_path(i)) for i in ids0]
    for img in images[1:]:
        np.testing.assert_array_equal(img, images[0])
    ids1 = [i for i in m.ids if m.row(i)["identity"] == "1"]
    assert not np.array_equal(read_tensor(m.tensor_path(ids1[0])), images[0])


def test_image_is_glyph_plus_pattern_plus_noise(tmp_path):
    spec = SynthSpec(num_identities=2, samples_per_identity=7, noise_std=0.0,
                     seed=4)
    m = generate_synthetic(spec, tmp_path)
    sample = m.row("001_003")
    level = int(sample["nuisance"])
    assert level == 3
    img = read_tensor(m.tensor_path("001_003"))[0]
    want = identity_glyph(spec, 1) + nuisance_pattern(spec, level)
    np.testing.assert_allclose(img, want, atol=1e-6)


def test_multilabel_base_counts_respect_bounds(tmp_path):
    spec = SynthSpec(num_identities=12, samples_per_identity=1, flip_prob=0.0,
                     seed=5)
    m = generate_synthetic(spec, tmp_path)
    for i in m.ids:
        mask = int(m.row(i)["multilabel"])
        active = bin(mask).count("1")
        assert 1 <= active <= 3


def test_multilabel_flips_vary_within_identity(tmp_path):
    spec = SynthSpec(num_identities=2, samples_per_identity=40, flip_prob=0.3,
                     seed=6)
    m = generate_synthetic(spec, tmp_path)
    masks = {m.row(i)["multilabel"] for i in m.ids if m.row(i)["identity"] == "0"}
    assert len(masks) > 1


def test_load_batch_multilabel_matrix(tmp_path):
    spec = SynthSpec(num_identities=2, samples_per_identity=2, seed=7)
    m = generate_synthetic(spec, tmp_path)
    labels = load_labels(m, m.ids, "multilabel", bitmask_classes=9)
    assert labels.shape == (4, 9)
    assert set(np.unique(labels)) <= {0.0, 1.0}
    for i, sample_id in enumerate(m.ids):
        folded = sum(1 << j for j, v in enumerate(labels[i]) if v >= 0.5)
        assert folded == int(m.row(sample_id)["multilabel"])
    # load_batch reads any column's values as they are
    _, masks = load_batch(m, m.ids, label_column="multilabel")
    assert masks.tolist() == [int(m.row(i)["multilabel"]) for i in m.ids]


def test_a_63_class_multilabel_column_reads_back(tmp_path):
    spec = SynthSpec(num_identities=2, samples_per_identity=4,
                     multilabel_classes=63, max_active=63, flip_prob=0.5,
                     seed=7)
    m = generate_synthetic(spec, tmp_path)
    masks = [int(m.row(i)["multilabel"]) for i in m.ids]
    assert max(masks) >= 2 ** 62  # the top class is set somewhere
    labels = load_labels(m, m.ids, "multilabel", bitmask_classes=63)
    assert labels.shape == (8, 63)
    for row, mask in zip(labels, masks):
        assert sum(1 << j for j, v in enumerate(row) if v >= 0.5) == mask


def test_a_multilabel_mask_that_leaves_int64_is_rejected():
    with pytest.raises(ValueError, match=r"^multilabel_classes must lie in "
                                         r"\[1, 63\], got 64"):
        SynthSpec(multilabel_classes=64)


def test_nuisance_pattern_orientations_are_distinct():
    spec = SynthSpec()
    flat = [nuisance_pattern(spec, j).ravel() for j in range(7)]
    for a in range(7):
        for b in range(a + 1, 7):
            assert not np.allclose(flat[a], flat[b])


@pytest.mark.parametrize("field, value", [
    ("noise_std", float("nan")), ("noise_std", float("inf")),
    ("image_size", 0)])
def test_a_synth_spec_that_cannot_run_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must lie in "):
        SynthSpec(**{field: value})


def test_synth_spec_validation_and_mapping():
    with pytest.raises(ValueError, match="identities"):
        SynthSpec(num_identities=1)
    with pytest.raises(ValueError, match="active-class"):
        SynthSpec(min_active=0)
    with pytest.raises(ValueError, match="flip_prob"):
        SynthSpec(flip_prob=1.5)
    spec = SynthSpec.from_mapping({"num_identities": "6", "noise_std": "0.2"})
    assert spec.num_identities == 6 and spec.noise_std == 0.2
    with pytest.raises(ValueError, match="unknown synthetic-spec key"):
        SynthSpec.from_mapping({"shape": "1"})
