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


def checksum64(*chunks) -> bytes:
    """8-byte checksum of the chunks (bytes-like) joined: the first 8
    bytes of their SHA-256."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()[:8]


def derive_seed(master_seed, *tags) -> int:
    """Stable integer sub-seed for (master_seed, tags...)."""
    return int(derive_rng(master_seed, *tags).integers(2 ** 63))
