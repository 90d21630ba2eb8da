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
``grad_<name>``. Parameters are made in the ``dtype`` given to the
constructor, and ``forward``/``backward`` cast their input to it: activations
and gradients keep the parameters' precision.
"""

import math
from enum import Enum

import numpy as np

from . import ndcore
from .chebyshev import PolyKind, _basis_stack


# The most basis stack, in bytes, that an eval-mode ChebyKanLayer.forward
# holds at once. A few MiB stays in cache next to the coefficient matrix and
# well under glibc's mmap threshold, so no call maps and faults in fresh
# pages. On 2 vCPUs with one OpenBLAS thread, a degree-5 [784, 32, 16, 10]
# model over 1,024 rows times 1 to 8 MiB within 15% of each other, and
# 16 MiB or more about 1.5x slower.
EVAL_BASIS_BYTES = 4 << 20


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
    ``w`` is degree-major, [degree+1, input_dim, output_dim], like the basis
    stack [batch, degree+1, input_dim], so the contraction is a matmul against
    ``w.reshape(-1, output_dim)``, a view; the tests pin it against a brute
    force triple loop. ``coeffs`` and ``grad_coeffs`` view ``w`` and ``grad_w``
    in the checkpoint order [input_dim, output_dim, degree+1]. A training
    forward builds the whole stack, which backward reads, and contracts it in
    one matmul. An eval-mode forward caches nothing, so it builds and
    contracts the stack a block of rows at a time, at most EVAL_BASIS_BYTES
    each: its working set stays in cache whatever the batch size, where the
    whole stack at degree 5 is six times the input's size.

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
        self.w = np.zeros((degree + 1, input_dim, output_dim), dtype=dtype)
        self.grad_w = np.zeros_like(self.w)
        self.training = True
        self._cache = None

    def forward(self, x):
        x = ndcore.as_mat(x, self.w.dtype, (None, self.input_dim))
        w = self.w.reshape(-1, self.output_dim)
        if self.training:
            xt = np.tanh(x)
            t = _basis_stack(xt, self.degree, self.kind)
            self._cache = (xt, t)
            return t.reshape(len(x), len(w)) @ w
        # nothing to cache, so no more than EVAL_BASIS_BYTES of basis is live
        self._cache = None
        y = np.empty((len(x), self.output_dim), dtype=w.dtype)
        rows = max(1, EVAL_BASIS_BYTES // (len(w) * w.itemsize))
        for start in range(0, len(x), rows):
            t = _basis_stack(np.tanh(x[start:start + rows]), self.degree, self.kind)
            np.matmul(t.reshape(len(t), len(w)), w, out=y[start:start + rows])
        return y

    def backward(self, dLdy, input_grad=True):
        xt, t = _training_cache(self)
        batch = xt.shape[0]
        dLdy = ndcore.as_mat(dLdy, self.w.dtype, (batch, self.output_dim))
        n1 = self.degree + 1
        w = self.w.reshape(-1, self.output_dim)
        np.matmul(t.reshape(batch, len(w)).T, dLdy, out=self.grad_w.reshape(w.shape))
        if not input_grad:
            return None
        gb = (dLdy @ w.T).reshape(batch, n1, self.input_dim)[:, 1:]  # dL/dP_k, k >= 1
        k = np.arange(1, n1, dtype=xt.dtype)
        s = 0.0 if self.kind is PolyKind.FIRST else 1.0
        return (np.einsum("bki,k,bki->bi", gb, k + s, t[:, :-1])
                - xt * np.einsum("bki,k,bki->bi", gb, k, t[:, 1:]))


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
        self.dim = dim
        self.eps = eps
        self.gamma = np.ones(dim, dtype=dtype)
        self.beta = np.zeros(dim, dtype=dtype)
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
