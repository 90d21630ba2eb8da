"""Dense numerics substrate: a shape-checking coercion and a seeded RNG.

Arrays are plain numpy ndarrays (row-major, real dtype); the helpers here pin
down layout and the reproducibility contract the rest of the package relies
on. Data and random draws are float64. A model's precision is fixed when it
is built (``network.build``'s ``dtype``), and its layers coerce their inputs
to it; float32 is not suitable for gradient checking.
"""

import hashlib

import numpy as np


class ShapeError(ValueError):
    """An operand violated a documented shape contract."""


def as_mat(x, dtype=np.float64, shape=(None, None)):
    """Coerce to a C-contiguous 2-D array of ``dtype`` and the given
    ``(rows, cols)`` shape, where None matches any size, or raise ShapeError."""
    a = np.ascontiguousarray(x, dtype=dtype)
    rows, cols = shape
    if a.ndim != 2 or rows is not None and a.shape[0] != rows or (
            cols is not None and a.shape[1] != cols):
        want = ", ".join("any" if n is None else str(n) for n in shape)
        raise ShapeError(f"expected a 2-D array of shape ({want}), got shape {a.shape}")
    return a


def check_seed(seed):
    """``seed`` as an int, or ValueError unless it is an integer in
    [0, 2**64): two seeds must never key the same generator."""
    value = int(seed)
    if value != seed or not 0 <= value < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


class Rng:
    """Deterministic random source with named, independently-derived substreams.

    The generator is PCG64 keyed by ``SeedSequence([seed, *h])`` where ``h``
    is the first 16 bytes of SHA-256 of the stream label, read as four
    big-endian u32 words. Identical (seed, stream, call sequence) therefore
    reproduce bit-for-bit across platforms; ``substream`` derives children by
    extending the label, so adding a new consumer never shifts existing ones.
    """

    def __init__(self, seed, stream="root"):
        self.seed = check_seed(seed)
        self.stream = str(stream)
        digest = hashlib.sha256(self.stream.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, *words]))
        )

    def substream(self, label):
        return Rng(self.seed, f"{self.stream}/{label}")

    def uniform(self, low, high, shape):
        if low > high:
            raise ValueError(f"uniform needs low <= high, got [{low}, {high}]")
        return self._gen.uniform(low, high, shape)

    def normal(self, mean, std, shape):
        if std < 0:
            raise ValueError(f"normal needs std >= 0, got {std}")
        return self._gen.normal(mean, std, shape)

    def permutation(self, n):
        return self._gen.permutation(n)

    def integers(self, low, high):
        """One int drawn uniformly from [low, high)."""
        return int(self._gen.integers(low, high))
