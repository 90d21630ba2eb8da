"""Dense numerics substrate: a shape-checking coercion, a seeded RNG and the
process's worker threads.

Arrays are plain numpy ndarrays (row-major, real dtype); the helpers here pin
down layout and the reproducibility contract the rest of the package relies
on. Data and random draws are float64. A layer's precision, float32 or
float64 (``check_dtype``), is fixed when it is built, and it coerces its
inputs to it; float32 is not suitable for gradient checking.

``on_workers`` runs a task on the calling thread and on one thread pool per
process. Its two users, the eval-mode KAN forward and the tanh input
normalization, cut their rows into fixed blocks and let each worker take
blocks from one shared iterator, writing only those blocks' rows, so how many
workers run (at most ``mask_cpus()``) never changes an output bit.
"""

import hashlib
import os
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


def check_seed(seed):
    """``seed`` as an int, or ValueError unless it is an integer in
    [0, 2**64): two seeds must never key the same generator."""
    value = int(seed)
    if value != seed or not 0 <= value < 1 << 64:
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


def on_workers(task, states):
    """Run task(state) once per state: the first on the calling thread, the
    rest on the process's pool, each under the caller's numpy error state,
    which new threads do not inherit. A pool call that has not started when
    the caller's own call ends is cancelled, not waited for: the task must
    leave it nothing to do by then. Returns once every started call has
    ended, raising the first exception any of them raised. One state makes
    no pool."""
    if len(states) == 1:
        task(states[0])
        return
    pid = os.getpid()
    if pid not in _pool:
        _pool.clear()
        _pool[pid] = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="chebykan")
    err, call = np.geterr(), np.geterrcall()

    def under_caller_errstate(state):
        with np.errstate(call=call, **err):
            task(state)

    futures = [_pool[pid].submit(under_caller_errstate, s) for s in states[1:]]
    try:
        task(states[0])
    finally:
        # waiting on a pool thread that has yet to wake, for no work, would
        # add its wake-up latency to the call
        started = [f for f in futures if not f.cancel()]
        wait(started)  # no pool thread still writes the caller's arrays
    for f in started:
        f.result()
