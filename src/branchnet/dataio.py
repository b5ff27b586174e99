"""Dataset plumbing: tensor containers, manifests, synthetic generation.

Tensor container ("TNSR"): magic, version byte, rank byte, little-endian
u32 dims, float32 little-endian payload, and a trailing 8-byte checksum
over every preceding byte. The magic and the checksum are the frame that
checkpoints share, written and checked by common.write_framed and
common.read_framed; this module reads and writes only the body. The
reader checks the rank and then the dims against the bytes left, as
Python ints, before it allocates the array, and reads the payload from
the file straight into it. Bitwise round-trip is a contract; a payload
holding NaN or inf reads as a ValueError naming the container, and
tensor_bytes refuses one with a ValueError too, as it refuses a shape
the header cannot hold, so no written container fails to read.

Manifests are tab-separated with a header line; `id` and `path` columns are
required, label columns are whatever the header declares. Paths are stored
relative to the manifest's directory. A label (or split) value must be an
integer within int64, or reading it is a ValueError naming the id and the
column. load_batch stacks the tensors of a list of ids, and load_labels
reads their labels from one column; experiments.load_tasks builds every
task's Dataset from one load_batch per split. Nothing in a generated
dataset depends on wall-clock state, so regeneration is byte-identical per
seed.

The synthetic suite realizes an invariance conflict on purpose:
  identity    one of K smooth random glyphs (what the trunk is trained on)
  nuisance    an additive oriented gradient whose level cycles through the
              samples of every identity, independent of identity
  binary      identity parity, a deterministic function of identity
  multilabel  a per-identity subset of 9 classes with rare per-sample flips
Identity is invariant to the nuisance factor by construction; the binary
factor is perfectly aligned with identity.
"""

import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .common import derive_rng, read_framed, write_framed
from .config import check_ranges, fields_from_mapping

TENSOR_MAGIC = b"TNSR"
TENSOR_VERSION = 1


def _chunks(arr):
    """The chunks of arr's container after its magic, arr cast to float32,
    or the ValueError tensor_bytes states."""
    with np.errstate(over="ignore"):  # out of range casts to inf, refused below
        arr = np.asarray(arr, dtype=np.float32)
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError("tensor holds a non-finite value as float32")
    if arr.ndim > 255 or max(arr.shape, default=0) >= 2 ** 32:
        raise ValueError(f"shape {arr.shape} exceeds the container's limits")
    head = struct.pack(f"<BB{arr.ndim}I", TENSOR_VERSION, arr.ndim, *arr.shape)
    return head, np.ascontiguousarray(arr, "<f4")


def tensor_bytes(arr) -> bytes:
    """The container of arr as float32, as write_tensor writes it. A value
    that is NaN or inf once cast (so also a float64 beyond float32's range)
    is a ValueError, as is a rank above 255 or an extent of 2^32 or more,
    which the header cannot hold."""
    buf = io.BytesIO()
    write_framed(buf, TENSOR_MAGIC, _chunks(arr))
    return buf.getvalue()


def write_tensor(path, arr):
    """Write arr's container; a refused array leaves no file behind."""
    chunks = _chunks(arr)
    with open(path, "wb") as f:
        write_framed(f, TENSOR_MAGIC, chunks)


def _read_body(frame):
    version, rank = frame.take(2)
    if version != TENSOR_VERSION:
        raise ValueError(f"unsupported container version {version}")
    if 4 * rank > frame.left:
        raise ValueError(f"{frame.left} bytes cannot hold the dims of a "
                         f"rank-{rank} tensor")
    dims = struct.unpack(f"<{rank}I", frame.take(4 * rank))
    if 4 * math.prod(dims) != frame.left:
        raise ValueError(f"payload of {frame.left} bytes does not match "
                         f"dims {dims}")
    arr = frame.into(np.empty(dims, "<f4"))
    # min and max propagate NaN and hold any inf, with no temporary
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError("holds a non-finite value")
    return arr


def _read_tensor(f, name):
    try:
        return read_framed(f, TENSOR_MAGIC, "tensor container", _read_body)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def parse_tensor(data: bytes, name="tensor") -> np.ndarray:
    """The array of container bytes, read as read_tensor reads a file;
    an error's message starts with name."""
    return _read_tensor(io.BytesIO(data), name)


def read_tensor(path) -> np.ndarray:
    """The array in the container at path, read from the file straight into
    it. Any problem with the bytes is a ValueError whose message starts
    with the path."""
    with open(path, "rb") as f:
        return _read_tensor(f, str(path))


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
        for what, items in (("column", self.columns), ("id", self.ids)):
            if len(set(items)) != len(items):
                dup = next(i for i in items if items.count(i) > 1)
                raise ValueError(f"duplicate manifest {what} {dup!r}")
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
        try:
            value = int(row[column])
        except ValueError:
            value = None
        int64 = np.iinfo(np.int64)
        if value is None or not int64.min <= value <= int64.max:
            raise ValueError(f"manifest id {sample_id!r}: {column} value "
                             f"{row[column]!r} is not an integer within int64")
        return value

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
        """Read a manifest; blank lines are skipped, and a row whose field
        count differs from the header's is a ValueError naming the file
        and its line number."""
        with open(path) as f:
            lines = [(lineno, ln.rstrip("\n"))
                     for lineno, ln in enumerate(f, 1) if ln.strip()]
        if not lines:
            raise ValueError(f"manifest {path!r} is empty")
        (_, header), *body = lines
        columns = tuple(header.split("\t"))
        rows = []
        for lineno, ln in body:
            parts = ln.split("\t")
            if len(parts) != len(columns):
                raise ValueError(f"{path}:{lineno}: manifest row has "
                                 f"{len(parts)} fields, header declares "
                                 f"{len(columns)}: {ln!r}")
            rows.append(dict(zip(columns, parts)))
        return cls(columns, rows, root=os.path.dirname(os.path.abspath(path)))


def bitmask_to_vector(mask: int, num_classes: int) -> np.ndarray:
    if mask < 0 or mask >= (1 << num_classes):
        raise ValueError(f"bitmask {mask} does not fit {num_classes} classes")
    return np.array([(mask >> j) & 1 for j in range(num_classes)],
                    dtype=np.float32)


def load_labels(manifest: Manifest, ids, label_column, bitmask_classes=None):
    """The labels of `ids` (order preserved) in one column: an int64 vector,
    or, given bitmask_classes, each value decoded from a bitmask into one
    row of an (n, bitmask_classes) binary matrix."""
    values = [manifest.label(i, label_column) for i in ids]
    if bitmask_classes is None:
        return np.array(values, dtype=np.int64)
    return np.stack([bitmask_to_vector(v, bitmask_classes) for v in values])


def load_batch(manifest: Manifest, ids, label_column=None):
    """Stack the tensors for `ids` (order preserved) into one batch,
    allocated from the first tensor's shape and filled row by row as each
    is read, so at most one tensor is held beside it.

    Returns (batch, labels); labels is None without a label_column, and
    the column's int64 vector otherwise.
    """
    if not ids:
        raise ValueError("load_batch needs at least one id")
    batch = None
    for row, sample_id in enumerate(ids):
        path = manifest.tensor_path(sample_id)
        try:
            tensor = read_tensor(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"failed to load id {sample_id!r}: {exc}") from None
        if batch is None:
            batch = np.empty((len(ids),) + tensor.shape, tensor.dtype)
        elif tensor.shape != batch.shape[1:]:
            raise ValueError(f"inconsistent tensor shapes in batch: id "
                             f"{sample_id!r} has {tensor.shape}, id {ids[0]!r} "
                             f"has {batch.shape[1:]}")
        batch[row] = tensor
    if label_column is None:
        return batch, None
    return batch, load_labels(manifest, ids, label_column)


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
        check_ranges(self, {
            "num_identities": "[2, inf)", "samples_per_identity": "[1, inf)",
            "image_size": "[1, inf)", "nuisance_levels": "[1, inf)",
            # a multilabel value is a bitmask that must fit in int64
            "multilabel_classes": "[1, 63]",
            "flip_prob": "[0, 1]", "noise_std": "[0, inf)"})
        if not 1 <= self.min_active <= self.max_active <= self.multilabel_classes:
            raise ValueError("active-class bounds must satisfy "
                             "1 <= min <= max <= classes")

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
