"""Dense numerics substrate: shape and setting checks, a seeded RNG, the
KAN layer's matrix-product rule and the process's worker threads.

Arrays are plain numpy ndarrays (row-major, real dtype); the helpers here pin
down layout and the reproducibility contract the rest of the package relies
on. Data and random draws are float64. A layer's precision, float32 or
float64 (``check_dtype``), is fixed when it is built, and it coerces its
inputs to it; float32 is not suitable for gradient checking.

``matmul_tiles`` runs the KAN layer's contraction and coefficient gradient,
in training and in eval mode alike, and is the one place that bounds a
product: it cuts the left operand's rows into tiles of at most ``GEMM_MACS``
multiply-adds per 2-D product, the size up to which the measured OpenBLAS
build skips packing its operands, and makes one ``np.matmul`` call per tile,
unless the bound allows fewer than ``GEMM_MIN_ROWS`` rows a tile. The tiles
fix the summation order, so they are part of an output's bits.

``for_row_blocks`` is the package's one pooled loop: it cuts rows into fixed
blocks, which bound a worker's working set but not a product, and runs them
on the calling thread and on one thread pool per process.
Its two users, the eval-mode KAN forward and the tanh input normalization,
write only a block's own rows, so how many workers run (at most
``mask_cpus()``) never changes an output bit.
"""

import hashlib
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

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


def check_int(name, value, low):
    """``value`` as an int (``operator.index``), or ValueError naming ``name``
    unless it is an integer, not a bool, of at least ``low``."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:  # a float, a string, None, a float array, ...
        index = None
    if index is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if index < low:
        raise ValueError(f"{name} must be >= {low}, got {index}")
    return index


def check_type(name, value, kind):
    """``value``, or ValueError naming ``name`` unless it is a ``kind``. Code
    tests an enum member by identity, so its value ("second") is no member."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def check_seed(seed):
    """``seed`` as an int, or ValueError unless it is an integer in
    [0, 2**64): two seeds must never key the same generator."""
    if (value := check_int("seed", seed, 0)) >= 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


def check_dtype(dtype):
    """``dtype`` as a numpy dtype, or ValueError unless it is float32 or float64."""
    try:
        value = np.dtype(dtype)
    except TypeError:  # not a dtype at all, such as "foo"
        value = None
    if value not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
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


# The most multiply-adds one 2-D product of matmul_tiles makes. Measured on
# one build, numpy 2.4.6 with its bundled OpenBLAS 0.3.31 (scipy-openblas,
# DYNAMIC_ARCH, as np.show_config() reports it) on an AVX-512 x86-64 core at
# one BLAS thread: a product [M, K] @ [K, N] with M*K*N <= 1e6 runs a
# small-matrix kernel that reads its operands in place, and above that one
# packs them into panels first, a cost that only large M repays (Goto & van
# de Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
# 34(3), 2008). (39x784) @ (784x32) took 36.9 us and 40 rows 48.3 us, in
# float32 18.0 and 22.5 us; 32 rows took 27.3 us and 64 rows 74.2 us. Other
# builds and cores may switch elsewhere or not at all.
GEMM_MACS = 1_000_000

# The fewest rows a tile of matmul_tiles holds: where GEMM_MACS // (K*N) is
# under it, the product is one call, however many rows. Every tile reads all
# of b, so many short tiles cost more than the packing they skip. On the
# build above, in float64, the layer's forward contraction at 784x1024 in
# one-row tiles took 8.4x as long as one call at batch 64, and its
# coefficient gradient at 784x32 in forty 20-row tiles (batch 1,536) 1.46x;
# 30-row tiles read 0.94-1.01x. Two tiles cost little more than one call: at
# 784x32 (cap 39) a forward of 40-63 rows in two tiles of 20-32 rows read
# 0.57-0.85x, and one of 256 or 1,024 rows in 37- or 38-row tiles 0.85x and
# 0.81x. Even tiles hold more than half the cap.
GEMM_MIN_ROWS = 32


def matmul_tiles(a, b, out):
    """Write a @ b into ``out`` by np.matmul calls over even tiles of the rows
    of ``a`` (its second-to-last axis) and of ``out``, and return ``out``.

    ``b`` is not cut. With M rows and cap = GEMM_MACS // (K * N), a product
    of more than GEMM_MACS multiply-adds is cut into ceil(M / cap) tiles of
    ceil(M / tiles) rows, the last one shorter, if cap is at least
    GEMM_MIN_ROWS; any other is one call. The tiles depend only on the
    shapes. Operands broadcast as np.matmul's do, so a stacked ``b`` may meet
    a 2-D ``a``."""
    m, k = a.shape[-2:]
    n = b.shape[-1]
    if m * k * n <= GEMM_MACS or (cap := GEMM_MACS // (k * n)) < GEMM_MIN_ROWS:
        return np.matmul(a, b, out=out)
    step = -(-m // -(-m // cap))  # ceil(m / cap) even tiles
    for lo in range(0, m, step):
        np.matmul(a[..., lo:lo + step, :], b, out=out[..., lo:lo + step, :])
    return out


# The most bytes one worker's row block holds at once, unless one row is
# bigger: the eval-mode KAN forward's basis stack, or the tanh normalization's
# output. One buffer per worker, which every block it takes reuses, so a large
# batch does not grow the working set. On 2 vCPUs (2 MiB of L2 each) with one
# OpenBLAS thread and one worker, the eval forward of a [784, 32, 16, 10] model
# over 1,024 rows, swept over 1, 2, 4, 8, 16 and 32 MiB three times, was
# fastest at 1 MiB in every sweep: 8-14% ahead of 4 MiB at degree 5 (second
# kind), 3-23% at degree 3 (first kind). A 1 MiB stack stays in L2 beside the
# layer's coefficients; it is 33 rows at that width and degree 5. The size
# fixes the block boundaries, so it is part of the output's bits: the worker
# count is not.
BLOCK_BYTES = 1 << 20

# one pool per process, keyed by its pid: a forked child inherits the
# parent's executor object but none of its threads, so it makes its own
_pool = {}


def mask_cpus():
    """How many CPUs this process may run on: the size of its CPU affinity
    mask, or os.cpu_count() on a platform that has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def for_row_blocks(task, n, rows, state=lambda: None):
    """Run task(s, lo, hi) once for each block [lo, hi) of `rows` rows that
    tiles [0, n) (a 0-row input is one empty block), and return the states.

    W = min(blocks, mask_cpus()) workers each make their own s = state() and
    take blocks from one shared iterator: the calling thread, with the first
    state, and W - 1 calls on the process's pool, each under the caller's
    numpy error state, which new threads do not inherit. A pool call that has
    not started when the caller's own ends, having taken every block left, is
    cancelled, not waited for. A worker that raises takes every block left,
    so each other worker stops after the block it holds. This returns
    once every started call has ended, raising the first exception any worker
    raised. One block runs on the calling thread and reads no CPU mask."""
    starts = range(0, max(1, n), rows)
    shared = iter(starts)  # each next() is one call under the GIL

    def work(s):
        try:
            for lo in shared:
                task(s, lo, min(lo + rows, n))
        except BaseException:
            deque(shared, maxlen=0)  # drained, so no worker takes another block
            raise

    states = [state() for _ in range(1 if len(starts) == 1 else min(len(starts), mask_cpus()))]
    if len(states) == 1:
        work(states[0])
        return states
    pid = os.getpid()
    if pid not in _pool:
        _pool.clear()
        _pool[pid] = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="chebykan")
    err, call = np.geterr(), np.geterrcall()

    def under_caller_errstate(s):
        with np.errstate(call=call, **err):
            work(s)

    futures = [_pool[pid].submit(under_caller_errstate, s) for s in states[1:]]
    try:
        work(states[0])
    finally:
        # waiting on a pool thread that has yet to wake, for no work, would
        # add its wake-up latency to the call
        started = [f for f in futures if not f.cancel()]
        wait(started)  # no pool thread still writes the caller's arrays
    for f in started:
        f.result()
    return states
