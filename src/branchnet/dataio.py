"""Dataset plumbing: tensor containers, manifests, synthetic generation.

Tensor container ("TNSR"): magic, version byte, rank byte, little-endian
u32 dims, float32 little-endian payload, and a trailing 8-byte checksum
over every preceding byte. Bitwise round-trip is a contract.

Manifests are tab-separated with a header line; `id` and `path` columns are
required, label columns are whatever the header declares. Paths are stored
relative to the manifest's directory. Nothing in a generated dataset
depends on wall-clock state, so regeneration is byte-identical per seed.

The synthetic suite realizes an invariance conflict on purpose:
  identity    one of K smooth random glyphs (what the trunk is trained on)
  nuisance    an additive oriented gradient whose level cycles through the
              samples of every identity, independent of identity
  binary      identity parity, a deterministic function of identity
  multilabel  a per-identity subset of 9 classes with rare per-sample flips
Identity is invariant to the nuisance factor by construction; the binary
factor is perfectly aligned with identity.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .common import checksum64, derive_rng
from .config import fields_from_mapping

TENSOR_MAGIC = b"TNSR"
TENSOR_VERSION = 1


def tensor_bytes(arr) -> bytes:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim > 255:
        raise ValueError(f"rank {arr.ndim} exceeds the container limit")
    head = TENSOR_MAGIC + struct.pack("<BB", TENSOR_VERSION, arr.ndim)
    dims = b"".join(struct.pack("<I", d) for d in arr.shape)
    body = head + dims + arr.astype("<f4").tobytes()
    return body + checksum64(body)


def write_tensor(path, arr):
    with open(path, "wb") as f:
        f.write(tensor_bytes(arr))


def parse_tensor(data: bytes, name="tensor") -> np.ndarray:
    if len(data) < 14 or data[:4] != TENSOR_MAGIC:
        raise ValueError(f"{name}: not a tensor container (bad magic)")
    if checksum64(data[:-8]) != data[-8:]:
        raise ValueError(f"{name}: checksum mismatch; file is corrupt")
    version, rank = struct.unpack_from("<BB", data, 4)
    if version != TENSOR_VERSION:
        raise ValueError(f"{name}: unsupported container version {version}")
    if len(data) < 6 + 4 * rank + 8:
        raise ValueError(f"{name}: {len(data)} bytes cannot hold the dims of "
                         f"a rank-{rank} tensor")
    dims = struct.unpack_from(f"<{rank}I", data, 6)
    off = 6 + 4 * rank
    count = int(np.prod(dims)) if rank else 1
    expected = off + 4 * count + 8
    if len(data) != expected:
        raise ValueError(f"{name}: payload length {len(data)} does not match "
                         f"dims {dims} (expected {expected} bytes)")
    return np.frombuffer(data, dtype="<f4", count=count, offset=off) \
        .reshape(dims).copy()


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    return parse_tensor(data, name=str(path))


@dataclass
class Manifest:
    columns: tuple
    rows: list                  # dicts keyed by column name, values str
    root: str = "."             # directory paths are relative to

    REQUIRED = ("id", "path")

    def __post_init__(self):
        for col in self.REQUIRED:
            if col not in self.columns:
                raise ValueError(f"manifest lacks required column {col!r}")
        ids = [r["id"] for r in self.rows]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate manifest id {dup!r}")
        self._by_id = {r["id"]: r for r in self.rows}

    @property
    def ids(self):
        return [r["id"] for r in self.rows]

    def row(self, sample_id):
        try:
            return self._by_id[sample_id]
        except KeyError:
            raise KeyError(f"manifest has no id {sample_id!r}") from None

    def label(self, sample_id, column):
        row = self.row(sample_id)
        if column not in self.columns or column not in row:
            raise ValueError(f"manifest declares no label column {column!r} "
                             f"(id {sample_id!r})")
        return int(row[column])

    def tensor_path(self, sample_id):
        return os.path.join(self.root, self.row(sample_id)["path"])

    def to_text(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(str(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_text())

    @classmethod
    def load(cls, path):
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
        if not lines:
            raise ValueError(f"manifest {path!r} is empty")
        columns = tuple(lines[0].split("\t"))
        rows = []
        for ln in lines[1:]:
            parts = ln.split("\t")
            if len(parts) != len(columns):
                raise ValueError(f"manifest row has {len(parts)} fields, "
                                 f"header declares {len(columns)}: {ln!r}")
            rows.append(dict(zip(columns, parts)))
        return cls(columns, rows, root=os.path.dirname(os.path.abspath(path)))


def bitmask_to_vector(mask: int, num_classes: int) -> np.ndarray:
    if mask < 0 or mask >= (1 << num_classes):
        raise ValueError(f"bitmask {mask} does not fit {num_classes} classes")
    return np.array([(mask >> j) & 1 for j in range(num_classes)],
                    dtype=np.float32)


def load_batch(manifest: Manifest, ids, label_column=None,
               num_classes=None):
    """Stack the tensors for `ids` (order preserved) into one batch.

    Returns (batch, labels); labels is None without a label_column, an int
    vector for scalar columns, and an (n, num_classes) binary matrix for
    the multilabel bitmask column.
    """
    if not ids:
        raise ValueError("load_batch needs at least one id")
    tensors = []
    for sample_id in ids:
        path = manifest.tensor_path(sample_id)
        try:
            tensors.append(read_tensor(path))
        except (OSError, ValueError) as exc:
            raise ValueError(f"failed to load id {sample_id!r}: {exc}") from None
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent tensor shapes in batch: {sorted(shapes)}")
    batch = np.stack(tensors)
    if label_column is None:
        return batch, None
    if label_column == "multilabel":
        if num_classes is None:
            raise ValueError("multilabel labels need num_classes")
        labels = np.stack([
            bitmask_to_vector(manifest.label(i, label_column), num_classes)
            for i in ids])
    else:
        labels = np.array([manifest.label(i, label_column) for i in ids],
                          dtype=np.int64)
    return batch, labels


def split_ids(manifest: Manifest, split: str):
    """ids for "train" (split < 8), "val" (split >= 8), or "all"."""
    if split == "all":
        return manifest.ids
    if "split" not in manifest.columns:
        raise ValueError("manifest declares no split column")
    if split == "train":
        return [i for i in manifest.ids if manifest.label(i, "split") < 8]
    if split == "val":
        return [i for i in manifest.ids if manifest.label(i, "split") >= 8]
    raise ValueError(f"unknown split {split!r}; expected train, val or all")


@dataclass(frozen=True)
class SynthSpec:
    num_identities: int = 20
    samples_per_identity: int = 50
    image_size: int = 56
    nuisance_levels: int = 7
    multilabel_classes: int = 9
    min_active: int = 1
    max_active: int = 3
    flip_prob: float = 0.05
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 2 or self.samples_per_identity < 1:
            raise ValueError("need at least 2 identities and 1 sample each")
        if not 1 <= self.nuisance_levels:
            raise ValueError("nuisance_levels must be >= 1")
        if not 1 <= self.min_active <= self.max_active <= self.multilabel_classes:
            raise ValueError("active-class bounds must satisfy "
                             "1 <= min <= max <= classes")
        if not 0 <= self.flip_prob <= 1 or self.noise_std < 0:
            raise ValueError("flip_prob in [0,1] and noise_std >= 0 required")

    @classmethod
    def from_mapping(cls, mapping):
        return fields_from_mapping(cls(), mapping, "", "synthetic-spec")


def _bilinear_upsample(small, size):
    """Smooth upsampling of a square grid to (size, size)."""
    k = small.shape[0]
    # sample positions mapped into the small grid's coordinate frame
    pos = np.linspace(0, k - 1, size)
    i0 = np.clip(np.floor(pos).astype(int), 0, k - 2)
    frac = pos - i0
    rows = small[i0, :] * (1 - frac)[:, None] + small[i0 + 1, :] * frac[:, None]
    cols = rows[:, i0] * (1 - frac)[None, :] + rows[:, i0 + 1] * frac[None, :]
    return cols


def identity_glyph(spec: SynthSpec, identity: int) -> np.ndarray:
    rng = derive_rng(spec.seed, "glyph", identity)
    small = rng.normal(0.0, 1.0, size=(7, 7))
    return _bilinear_upsample(small, spec.image_size).astype(np.float32)


def nuisance_pattern(spec: SynthSpec, level: int) -> np.ndarray:
    """Additive oriented gradient; one orientation per level."""
    theta = level * np.pi / spec.nuisance_levels
    coords = np.linspace(-1.0, 1.0, spec.image_size)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    return (np.cos(theta) * xx + np.sin(theta) * yy).astype(np.float32)


def _identity_bitmask(spec: SynthSpec, identity: int) -> int:
    rng = derive_rng(spec.seed, "multilabel", identity)
    k = int(rng.integers(spec.min_active, spec.max_active + 1))
    active = rng.choice(spec.multilabel_classes, size=k, replace=False)
    return int(sum(1 << int(j) for j in active))


def generate_synthetic(spec: SynthSpec, out_dir) -> Manifest:
    """Write the synthetic suite; returns the saved manifest.

    Per-identity sample s carries nuisance level s % levels and split
    decile (s * 10) // samples_per_identity, so every identity appears in
    every split and nuisance levels are balanced across identities.
    """
    tensor_dir = os.path.join(out_dir, "tensors")
    os.makedirs(tensor_dir, exist_ok=True)
    columns = ("id", "path", "identity", "nuisance", "binary", "multilabel",
               "split")
    rows = []
    patterns = [nuisance_pattern(spec, j) for j in range(spec.nuisance_levels)]
    for identity in range(spec.num_identities):
        glyph = identity_glyph(spec, identity)
        base_mask = _identity_bitmask(spec, identity)
        for s in range(spec.samples_per_identity):
            level = s % spec.nuisance_levels
            image = glyph + patterns[level]
            if spec.noise_std > 0:
                rng = derive_rng(spec.seed, "noise", identity, s)
                image = image + rng.normal(0.0, spec.noise_std,
                                           size=image.shape).astype(np.float32)
            mask = base_mask
            flip_rng = derive_rng(spec.seed, "flip", identity, s)
            for j in range(spec.multilabel_classes):
                if flip_rng.random() < spec.flip_prob:
                    mask ^= 1 << j
            sample_id = f"{identity:03d}_{s:03d}"
            rel = os.path.join("tensors", f"{sample_id}.tnsr")
            write_tensor(os.path.join(out_dir, rel),
                         image[None, :, :].astype(np.float32))
            rows.append({
                "id": sample_id, "path": rel, "identity": str(identity),
                "nuisance": str(level), "binary": str(identity % 2),
                "multilabel": str(mask),
                "split": str((s * 10) // spec.samples_per_identity),
            })
    manifest = Manifest(columns, rows, root=os.path.abspath(out_dir))
    manifest.save(os.path.join(out_dir, "manifest.tsv"))
    return manifest
