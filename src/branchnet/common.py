"""Shared small utilities: seed derivation and checksums."""

import hashlib

import numpy as np


def derive_rng(master_seed, *tags):
    """Independent generator for (master_seed, tags...).

    Tags are hashed so that string coordinates (layer names, task names)
    produce stable entropy across runs and platforms.
    """
    entropy = [int(master_seed) & 0xFFFFFFFF]
    for tag in tags:
        digest = hashlib.sha256(repr(tag).encode()).digest()
        entropy.append(int.from_bytes(digest[:8], "little"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def checksum64(data: bytes) -> bytes:
    """8-byte checksum: the first 8 bytes of SHA-256."""
    return hashlib.sha256(data).digest()[:8]


def derive_seed(master_seed, *tags) -> int:
    """Stable integer sub-seed for (master_seed, tags...)."""
    return int(derive_rng(master_seed, *tags).integers(2 ** 63))
