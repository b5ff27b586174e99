"""Shared small utilities: seed derivation and the checked container frame.

Tensor containers and checkpoints are framed alike: a magic, a body, and
an 8-byte checksum, the first 8 bytes of the sha256 of every preceding
byte, the magic's included. write_framed and read_framed are the frame's
one writer and one reader. Both stream: every byte is hashed as it is
written or read, and the reader reads each piece of the body straight into
the buffer the body's reader hands it, so neither holds the file. A
checksum mismatch takes precedence over every error after the magic: when
the body fails, the reader hashes the rest of the file first and reports a
corrupt file as such.
"""

import hashlib
import io

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


def derive_seed(master_seed, *tags) -> int:
    """Stable integer sub-seed for (master_seed, tags...)."""
    return int(derive_rng(master_seed, *tags).integers(2 ** 63))


def write_framed(f, magic, chunks):
    """Write magic and then each bytes-like chunk of the iterable chunks to
    the binary file f, each hashed as it is written, then the 8-byte
    checksum. A chunk may reuse the previous chunk's buffer: each is
    written before the next is drawn."""
    digest = hashlib.sha256(magic)
    f.write(magic)
    for chunk in chunks:
        digest.update(chunk)
        f.write(chunk)
    f.write(digest.digest()[:8])


class Frame:
    """A framed file's bytes before its checksum, read in order: every byte
    read is fed to a running sha256, off counts them and left counts the
    bytes still to read. what names the format in errors. A read past the
    checksum is a ValueError."""

    def __init__(self, f, size, what):
        self.f, self.what, self.off, self.left = f, what, 0, size - 8
        self.digest = hashlib.sha256()

    def into(self, buf):
        """Fill the writable contiguous buffer buf (an ndarray, say) from
        the file and return it."""
        n = memoryview(buf).nbytes
        if n > self.left or self.f.readinto(buf) != n:
            raise ValueError(f"{self.what} ends inside the {n} bytes at "
                             f"offset {self.off}")
        self.digest.update(buf)
        self.off, self.left = self.off + n, self.left - n
        return buf

    def take(self, n):
        """The next n bytes."""
        return self.into(bytearray(n))

    def finish(self):
        """Hash what is left before the checksum, then compare the
        checksum: a mismatch is a ValueError."""
        while self.left:
            self.take(min(self.left, 1 << 20))
        if self.f.read(8) != self.digest.digest()[:8]:
            raise ValueError(f"{self.what} checksum mismatch; file is corrupt")


def read_framed(f, magic, what, read_body):
    """read_body(frame)'s value for the framed binary file f, once its
    checksum holds: read_body reads the body through frame, a Frame past
    the magic, and leaves no byte of it unread. A file too short to hold
    the magic and the checksum, or with another magic, is "not a {what}
    (bad magic)"; a checksum mismatch is a ValueError that takes
    precedence over any ValueError read_body raises."""
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    frame = Frame(f, size, what)
    if size < len(magic) + 8 or frame.take(len(magic)) != magic:
        raise ValueError(f"not a {what} (bad magic)")
    try:
        value = read_body(frame)
    except ValueError:
        frame.finish()
        raise
    frame.finish()
    return value
