"""Dense numerics substrate: a shape-checking coercion and a seeded RNG.

Arrays are plain numpy ndarrays (row-major, real dtype); the helpers here pin
down layout and the reproducibility contract the rest of the package relies
on. Data and random draws are float64. A model's precision is fixed when it
is built (``network.build``'s ``dtype``), and its layers coerce their inputs
to it; float32 is not suitable for gradient checking.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """An operand violated a documented shape contract."""


def as_mat(x, dtype=np.float64):
    """Coerce to a C-contiguous 2-D array of ``dtype``, or raise ShapeError."""
    a = np.ascontiguousarray(x, dtype=dtype)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {a.shape}")
    return a


class Rng:
    """Deterministic random source with named, independently-derived substreams.

    The generator is PCG64 keyed by ``SeedSequence([seed, *h])`` where ``h``
    is the first 16 bytes of SHA-256 of the stream label, read as four
    big-endian u32 words. Identical (seed, stream, call sequence) therefore
    reproduce bit-for-bit across platforms; ``substream`` derives children by
    extending the label, so adding a new consumer never shifts existing ones.
    """

    def __init__(self, seed, stream="root"):
        self.seed = int(seed) & _MASK64
        self.stream = str(stream)
        digest = hashlib.sha256(self.stream.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, *words]))
        )

    def substream(self, label):
        return Rng(self.seed, f"{self.stream}/{label}")

    def uniform(self, low=0.0, high=1.0, shape=None):
        if low > high:
            raise ValueError(f"uniform needs low <= high, got [{low}, {high}]")
        out = self._gen.uniform(low, high, shape)
        if shape is None:
            return float(out)
        return out

    def normal(self, mean=0.0, std=1.0, shape=None):
        if std < 0:
            raise ValueError(f"normal needs std >= 0, got {std}")
        out = self._gen.normal(mean, std, shape)
        if shape is None:
            return float(out)
        return out

    def permutation(self, n):
        return self._gen.permutation(n)

    def integers(self, low, high):
        """One int drawn uniformly from [low, high)."""
        return int(self._gen.integers(low, high))
