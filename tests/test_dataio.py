import os

import numpy as np
import pytest

from branchnet.dataio import (Manifest, SynthSpec, bitmask_to_vector,
                              generate_synthetic, identity_glyph, load_batch,
                              nuisance_pattern, parse_tensor, read_tensor,
                              split_ids, tensor_bytes, write_tensor)


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
    from branchnet.common import checksum64
    fixed = bytes(data[:-8])
    with pytest.raises(ValueError, match="version 9"):
        parse_tensor(fixed + checksum64(fixed))


@pytest.mark.parametrize("rank", [5, 6, 255])
def test_tensor_rank_beyond_the_body_is_a_value_error(rank):
    # A re-sealed 18-byte body declaring more dims than it can hold; from
    # rank 6 on the dims run past the end of the whole container.
    from branchnet.common import checksum64
    body = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32))[:-8])
    assert len(body) == 18
    body[5] = rank
    with pytest.raises(ValueError, match=f"cannot hold the dims of a rank-{rank}"):
        parse_tensor(bytes(body) + checksum64(bytes(body)))


def test_read_tensor_names_the_file_in_errors(tmp_path):
    path = tmp_path / "broken.tnsr"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError, match="broken.tnsr"):
        read_tensor(path)


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


def test_manifest_load_rejects_ragged_rows(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\tpath\na\tx\textra\n")
    with pytest.raises(ValueError, match="fields"):
        Manifest.load(p)
    (tmp_path / "empty.tsv").write_text("")
    with pytest.raises(ValueError, match="empty"):
        Manifest.load(tmp_path / "empty.tsv")


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
    batch, labels = load_batch(m, m.ids, label_column="multilabel", num_classes=9)
    assert labels.shape == (4, 9)
    assert set(np.unique(labels)) <= {0.0, 1.0}
    for i, sample_id in enumerate(m.ids):
        folded = sum(1 << j for j, v in enumerate(labels[i]) if v >= 0.5)
        assert folded == int(m.row(sample_id)["multilabel"])
    with pytest.raises(ValueError, match="num_classes"):
        load_batch(m, m.ids, label_column="multilabel")


def test_nuisance_pattern_orientations_are_distinct():
    spec = SynthSpec()
    flat = [nuisance_pattern(spec, j).ravel() for j in range(7)]
    for a in range(7):
        for b in range(a + 1, 7):
            assert not np.allclose(flat[a], flat[b])


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
