"""Trainable layers: the Chebyshev KAN layer and LayerNorm.

Every layer follows the same protocol: ``forward(x)`` caches whatever the
matching ``backward(dLdy)`` needs only while ``training`` is True. Inference
never touches a layer's parameters or gradients: an eval-mode forward drops
the cache, so ``backward`` after it, or in eval mode, raises RuntimeError.
``backward(dLdy, input_grad=True)`` overwrites the parameter gradients fresh
and returns dL/dx; with ``input_grad=False`` it fills the same parameter
gradients by the same ops, skips the dL/dx work and returns None, for a
caller that reads no input gradient. ``param_names`` lists the parameter
attributes in declaration order; the gradient of ``name`` lives in
``grad_<name>``. Parameters are made in the constructor's ``dtype``, float32
or float64, and ``forward``/``backward`` cast their input to it: activations
and gradients keep the parameters' precision.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from enum import Enum

import numpy as np

from . import ndcore
from .chebyshev import PolyKind, _fill_basis


# The most basis stack, in bytes, that one worker of an eval-mode
# ChebyKanLayer.forward holds at once: one buffer, which every row block the
# worker takes reuses, so a large batch does not grow the working set. On 2
# vCPUs (2 MiB of L2 each) with one OpenBLAS thread and one worker, the eval
# forward of a [784, 32, 16, 10] model over 1,024 rows, swept over 1, 2, 4, 8,
# 16 and 32 MiB three times, was fastest at 1 MiB in every sweep: 8-14% ahead
# of 4 MiB at degree 5 (second kind), 3-23% at degree 3 (first kind). A 1 MiB
# stack stays in L2 beside the layer's coefficients; it is 33 rows at that
# width and degree 5. The size fixes the block boundaries, so it is part of
# the output's bits: the worker count is not (see _workers).
EVAL_BASIS_BYTES = 1 << 20


# one pool per process, keyed by its pid: a forked child inherits the
# parent's executor object but none of its threads, so it makes its own
_pool = {}


def _workers(blocks):
    """How many threads run an eval forward's `blocks` row blocks: one per
    core that BLAS leaves free, W = min(blocks, max(1, cpus // blas_threads)).
    `cpus` counts the cores this process may run on; `blas_threads` is
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, if set to a positive int,
    else `cpus`, since OpenBLAS then starts a thread per core itself."""
    if blocks < 2:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas_threads = int(value)
            break
    return min(blocks, max(1, cpus // blas_threads))


def _on_workers(task, states):
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


class InitMethod(Enum):
    XAVIER = "xavier"
    HE = "he"
    NORMAL = "normal"
    UNIFORM = "uniform"
    LECUN = "lecun"
    ORTHOGONAL = "orthogonal"


def _training_cache(layer):
    """The cache of ``layer``'s last forward, or RuntimeError if that forward
    ran in eval mode, there was none, or the layer is now in eval mode."""
    if not layer.training or layer._cache is None:
        raise RuntimeError("backward called before forward (or layer is in eval mode)")
    return layer._cache


class ChebyKanLayer:
    """Polynomial-basis layer: y[b,o] = sum_{i,j} P_j(tanh(x[b,i])) * w[j,i,o].

    The tanh squashes every layer's input into (-1, 1) before the basis is
    built — it is part of the layer, not a dataset preprocessing step, so
    hidden activations stay in the range where the basis is well behaved.
    ``w`` is degree-major, [degree+1, input_dim, output_dim]. Since P_0 = 1,
    the terms w[0, :, o] act only through their sum, so ``forward`` adds
    ``w[0].sum(0)`` as one bias and builds only P_1..P_degree, a degree-major
    stack [degree, batch, input_dim] whose slab k holds P_{k+1} as one
    contiguous [batch, input_dim] array. One batched matmul contracts each
    slab against its own [input_dim, output_dim] panel of ``w[1:]``, and the
    degree partial sums are added; the tests pin it against a brute force
    triple loop. ``coeffs`` and ``grad_coeffs`` view ``w`` and
    ``grad_w`` in the checkpoint order [input_dim, output_dim, degree+1].
    ``forward`` builds and contracts the stack a block of rows at a time. In
    eval mode a block holds at most EVAL_BASIS_BYTES of basis, so the working
    set stays in cache whatever the batch size, where the whole stack at
    degree 5 is five times the input's size. Up to
    W = min(blocks, max(1, cpus // blas_threads)) threads, the calling thread
    among them, take the blocks from one shared iterator, each with its own
    EVAL_BASIS_BYTES stack (see ``_workers`` for ``cpus`` and
    ``blas_threads``). Each block runs the one-thread loop's ops and writes
    only its own rows of the output, so W changes no bit of it. In training
    mode the block is the whole batch, because backward reads the whole
    stack, and it runs on the calling thread.

    The input gradient reads the cached basis and the current ``w``. With
    xt = tanh(x), the identities (1-x^2) T'_k = k (T_{k-1} - x T_k) and
    (1-x^2) U'_k = (k+1) U_{k-1} - k x U_k (Mason & Handscomb, *Chebyshev
    Polynomials*, ch. 2) give dL/dx = sum_{k>=1} gb_k ((k+s) P_{k-1} - k xt P_k),
    with gb_k = dL/dP_k and s = 0 (first kind) or 1 (second). At degree 0 the
    sum is empty, so the input gradient is exactly zero.
    """

    param_names = ("w",)
    coeffs = property(lambda self: self.w.transpose(1, 2, 0))
    grad_coeffs = property(lambda self: self.grad_w.transpose(1, 2, 0))

    def __init__(self, input_dim, output_dim, degree, kind=PolyKind.FIRST, dtype=np.float64):
        if input_dim < 1 or output_dim < 1:
            raise ValueError(f"dims must be >= 1, got {input_dim}x{output_dim}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.degree = degree
        self.kind = kind
        self.w = np.zeros((degree + 1, input_dim, output_dim), dtype=ndcore.check_dtype(dtype))
        self.grad_w = np.zeros_like(self.w)
        self.training = True
        self._cache = None

    def forward(self, x):
        x = ndcore.as_mat(x, self.w.dtype, (None, self.input_dim))
        n = self.degree
        y = np.empty((len(x), self.output_dim), dtype=x.dtype)
        block = EVAL_BASIS_BYTES // (max(1, n) * self.input_dim * x.itemsize)
        rows = max(1, len(x) if self.training else block)
        starts = range(0, max(1, len(x)), rows)  # a 0-row batch is one empty block
        shape = (n, min(rows, len(x)))
        stacks = [(np.empty(shape + (self.input_dim,), dtype=x.dtype),
                   np.empty(shape + (self.output_dim,), dtype=x.dtype))
                  for _ in range(_workers(len(starts)))]
        shared = iter(starts)  # each next() is one call under the GIL

        def fill(stack):
            buf, part = stack
            for start in shared:
                xb = x[start:start + rows]
                t = buf[:, :len(xb)]
                if n:
                    np.tanh(xb, out=t[0])
                    _fill_basis(t, self.kind)
                p = np.matmul(t, self.w[1:], out=part[:, :len(xb)])
                np.sum(p, axis=0, out=y[start:start + rows])

        _on_workers(fill, stacks)
        y += self.w[0].sum(axis=0)  # P_0 = 1, so its terms act only through their sum
        self._cache = stacks[0][0] if self.training else None
        return y

    def backward(self, dLdy, input_grad=True):
        t = _training_cache(self)
        n, batch, width = t.shape
        dLdy = ndcore.as_mat(dLdy, self.w.dtype, (batch, self.output_dim))
        self.grad_w[0] = dLdy.sum(axis=0)
        np.matmul(t.transpose(0, 2, 1), dLdy, out=self.grad_w[1:])
        if not input_grad:
            return None
        if n == 0:
            return np.zeros((batch, width), dtype=t.dtype)
        gb = dLdy @ self.w[1:].transpose(0, 2, 1)  # dL/dP_k, k >= 1: [degree, batch, in]
        k = np.arange(1, n + 1, dtype=t.dtype)
        s = 0.0 if self.kind is PolyKind.FIRST else 1.0
        xt = t[0] if self.kind is PolyKind.FIRST else 0.5 * t[0]  # U_1 = 2 xt
        return ((1.0 + s) * gb[0]  # the k = 1 term, whose P_0 is 1
                + np.einsum("kbi,k,kbi->bi", gb[1:], k[1:] + s, t[:-1])
                - xt * np.einsum("kbi,k,kbi->bi", gb, k, t))


def init_coeffs(layer, method, rng):
    """Populate a ChebyKanLayer's coefficients in place.

    Fan-in/fan-out count basis terms, not just features: each output unit sums
    input_dim*(degree+1) weighted basis values, so fan_in = input_dim*(degree+1)
    and fan_out = output_dim*(degree+1). The orthogonal method draws a standard
    normal fan_in x output_dim matrix and QR-orthonormalizes it in its tall
    orientation: orthonormal columns, or orthonormal rows for a wide layer.
    """
    n1 = layer.degree + 1
    fan_in = layer.input_dim * n1
    fan_out = layer.output_dim * n1
    shape = layer.coeffs.shape
    if method is InitMethod.XAVIER:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        new = rng.uniform(-bound, bound, shape)
    elif method is InitMethod.HE:
        new = rng.normal(0.0, math.sqrt(2.0 / fan_in), shape)
    elif method is InitMethod.LECUN:
        new = rng.normal(0.0, math.sqrt(1.0 / fan_in), shape)
    elif method is InitMethod.NORMAL:
        new = rng.normal(0.0, 1.0, shape)
    elif method is InitMethod.UNIFORM:
        new = rng.uniform(-1.0 / fan_in, 1.0 / fan_in, shape)
    elif method is InitMethod.ORTHOGONAL:
        m = rng.normal(0.0, 1.0, (fan_in, layer.output_dim))
        wide = fan_in < layer.output_dim
        q, r = np.linalg.qr(m.T if wide else m)
        q = q * np.where(np.diag(r) < 0, -1.0, 1.0)  # the QR with diag(r) >= 0
        q = q.T if wide else q
        new = q.reshape(layer.input_dim, n1, layer.output_dim).transpose(0, 2, 1)
    else:
        raise ValueError(f"unknown init method: {method}")
    layer.coeffs[...] = new


class LayerNorm:
    """Per-row normalization with learnable scale and shift.

    A constant row has zero variance; eps keeps the division finite, so its
    output is exactly beta.
    """

    param_names = ("gamma", "beta")

    def __init__(self, dim, eps=1e-5, dtype=np.float64):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 0.0 < eps < math.inf:  # also rejects nan
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        self.dim = dim
        self.eps = eps
        self.gamma = np.ones(dim, dtype=ndcore.check_dtype(dtype))
        self.beta = np.zeros_like(self.gamma)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.training = True
        self._cache = None

    def forward(self, x):
        x = ndcore.as_mat(x, self.gamma.dtype, (None, self.dim))
        d = x - x.mean(axis=1, keepdims=True)
        var = np.mean(d * d, axis=1, keepdims=True)  # np.var's own steps
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = d * inv
        self._cache = (xhat, inv) if self.training else None
        return self.gamma * xhat + self.beta

    def backward(self, dLdy, input_grad=True):
        xhat, inv = _training_cache(self)
        dLdy = ndcore.as_mat(dLdy, self.gamma.dtype, xhat.shape)
        self.grad_beta[...] = dLdy.sum(axis=0)
        self.grad_gamma[...] = (dLdy * xhat).sum(axis=0)
        if not input_grad:
            return None
        d = self.dim
        dxhat = dLdy * self.gamma
        return (inv / d) * (
            d * dxhat
            - dxhat.sum(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
        )
