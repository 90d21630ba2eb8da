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
from enum import Enum

import numpy as np

from . import ndcore
from .chebyshev import PolyKind, _fill_basis


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
    The contraction and the coefficient gradient run through
    ``ndcore.matmul_tiles``, which bounds every product, in both modes: at
    784x32 a batch-64 contraction is two 32-row calls per slab and a 55-row
    eval block's one of 28 rows and one of 27, and the coefficient gradient
    at 784 inputs is two 392-row calls. The input gradient is one call,
    which read faster than tiles at every measured shape.
    ``forward`` builds and contracts the stack a block of rows at a time, by
    ``ndcore.for_row_blocks``; the blocks bound only the working set. In
    eval mode a block holds at most ``ndcore.BLOCK_BYTES`` of basis, or one
    row if that row's is bigger (1.2 MB at degree 5 and 30,000 float64
    inputs): 33 float64 rows at 784 inputs and degree 5, 55 at degree 3.
    So the working set does not grow with the batch size, where the whole
    stack at degree 5 is five times the input's size. Each worker has its
    own stack; each block runs the one-thread loop's ops and writes only its
    own rows of the output, so the worker count changes no bit of it. In
    training mode the block is the whole batch, because backward reads the
    whole stack, and it runs on the calling thread.

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
        self.input_dim = ndcore.check_int("input_dim", input_dim, 1)
        self.output_dim = ndcore.check_int("output_dim", output_dim, 1)
        self.degree = ndcore.check_int("degree", degree, 0)
        self.kind = ndcore.check_type("kind", kind, PolyKind)
        self.w = np.zeros((self.degree + 1, self.input_dim, self.output_dim),
                          dtype=ndcore.check_dtype(dtype))
        self.grad_w = np.zeros_like(self.w)
        self.training = True
        self._cache = None

    def forward(self, x):
        x = ndcore.as_mat(x, self.w.dtype, (None, self.input_dim))
        n = self.degree
        y = np.empty((len(x), self.output_dim), dtype=x.dtype)
        block = ndcore.BLOCK_BYTES // (max(1, n) * self.input_dim * x.itemsize)
        rows = max(1, len(x) if self.training else block)
        shape = (n, min(rows, len(x)))

        def stack():
            return (np.empty(shape + (self.input_dim,), dtype=x.dtype),
                    np.empty(shape + (self.output_dim,), dtype=x.dtype))

        def fill(stack, lo, hi):
            buf, part = stack
            t = buf[:, :hi - lo]
            if n:
                np.tanh(x[lo:hi], out=t[0])
                _fill_basis(t, self.kind)
            p = ndcore.matmul_tiles(t, self.w[1:], part[:, :hi - lo])
            np.sum(p, axis=0, out=y[lo:hi])

        stacks = ndcore.for_row_blocks(fill, len(x), rows, stack)
        y += self.w[0].sum(axis=0)  # P_0 = 1, so its terms act only through their sum
        self._cache = stacks[0][0] if self.training else None
        return y

    def backward(self, dLdy, input_grad=True):
        t = _training_cache(self)
        n, batch, width = t.shape
        dLdy = ndcore.as_mat(dLdy, self.w.dtype, (batch, self.output_dim))
        self.grad_w[0] = dLdy.sum(axis=0)
        ndcore.matmul_tiles(t.transpose(0, 2, 1), dLdy, self.grad_w[1:])
        if not input_grad:
            return None
        if n == 0:
            return np.zeros((batch, width), dtype=t.dtype)
        gb = np.matmul(dLdy, self.w[1:].transpose(0, 2, 1))  # dL/dP_k, k >= 1: [degree, batch, in]
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
    output is exactly beta. eps is a constant: the checkpoint does not store
    it, so a per-layer value would not survive a save and load.
    """

    param_names = ("gamma", "beta")
    eps = 1e-5

    def __init__(self, dim, dtype=np.float64):
        self.dim = ndcore.check_int("dim", dim, 1)
        self.gamma = np.ones(self.dim, dtype=ndcore.check_dtype(dtype))
        self.beta = np.zeros_like(self.gamma)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.training = True
        self._cache = None

    def forward(self, x):
        x = ndcore.as_mat(x, self.gamma.dtype, (None, self.dim))
        d = x - x.mean(axis=1, keepdims=True)
        y = d * d
        var = np.mean(y, axis=1, keepdims=True)  # np.var's own steps
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = np.multiply(d, inv, out=d)
        self._cache = (xhat, inv) if self.training else None
        np.multiply(self.gamma, xhat, out=y)  # gamma * xhat + beta, in d * d's buffer
        y += self.beta
        return y

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
