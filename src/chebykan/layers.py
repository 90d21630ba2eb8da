"""Trainable layers: the Chebyshev KAN layer and LayerNorm.

Every layer follows the same protocol: ``forward(x)`` caches whatever the
matching ``backward(dLdy)`` needs (only while ``training`` is True, so
inference on a frozen layer never mutates it), ``backward`` overwrites the
parameter gradients fresh and returns dL/dx. ``param_names`` lists the
parameter attributes in declaration order; the gradient of ``name`` lives in
``grad_<name>``. Parameters are created in the ``dtype`` given to the
constructor, and ``forward``/``backward`` coerce their input to it, so
activations and gradients follow the parameters' precision.
"""

import math
from enum import Enum

import numpy as np

from . import ndcore
from .chebyshev import PolyKind, _basis_stack
from .ndcore import ShapeError


class InitMethod(Enum):
    XAVIER = "xavier"
    HE = "he"
    NORMAL = "normal"
    UNIFORM = "uniform"
    LECUN = "lecun"
    ORTHOGONAL = "orthogonal"


class ChebyKanLayer:
    """Polynomial-basis layer: y[b,o] = sum_{i,j} P_j(tanh(x[b,i])) * coeffs[i,o,j].

    The tanh squashes every layer's input into (-1, 1) before the basis is
    built — it is part of the layer, not a dataset preprocessing step, so
    hidden activations stay in the range where the basis is well behaved.
    ``coeffs`` has shape [input_dim, output_dim, degree+1], the checkpoint
    order. The basis is degree-major, [batch, degree+1, input_dim], so the
    contraction is one matmul against the coefficients laid out with row
    ``j*input_dim + i`` holding ``coeffs[i, :, j]``; the tests pin it against
    a brute force triple loop.

    The input gradient reads only the cached basis. With xt = tanh(x), the
    identities (1-x^2) T'_k = k (T_{k-1} - x T_k) and
    (1-x^2) U'_k = (k+1) U_{k-1} - k x U_k (Mason & Handscomb, *Chebyshev
    Polynomials*, ch. 2) give dL/dx = sum_{k>=1} gb_k ((k+s) P_{k-1} - k xt P_k),
    with gb_k = dL/dP_k and s = 0 (first kind) or 1 (second). At degree 0 the
    sum is empty, so the input gradient is exactly zero.
    """

    param_names = ("coeffs",)

    def __init__(self, input_dim, output_dim, degree, kind=PolyKind.FIRST, dtype=np.float64):
        if input_dim < 1 or output_dim < 1:
            raise ValueError(f"dims must be >= 1, got {input_dim}x{output_dim}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.degree = degree
        self.kind = kind
        self.coeffs = np.zeros((input_dim, output_dim, degree + 1), dtype=dtype)
        self.grad_coeffs = np.zeros_like(self.coeffs)
        self.training = True
        self._cache = None

    def forward(self, x):
        x = ndcore.as_mat(x, self.coeffs.dtype)
        if x.shape[1] != self.input_dim:
            raise ShapeError(f"expected input width {self.input_dim}, got {x.shape[1]}")
        xt = np.tanh(x)
        t = _basis_stack(xt, self.degree, self.kind)
        # [i, o, j] -> [j*in + i, o], the basis's [b, j, i] order, so the
        # contraction is a single matmul
        w = self.coeffs.transpose(2, 0, 1).reshape(-1, self.output_dim)
        y = t.reshape(x.shape[0], -1) @ w
        if self.training:
            self._cache = (xt, t, w)
        return y

    def backward(self, dLdy):
        if self._cache is None:
            raise RuntimeError("backward called before forward (or layer is in eval mode)")
        dLdy = ndcore.as_mat(dLdy, self.coeffs.dtype)
        xt, t, w = self._cache
        batch = xt.shape[0]
        if dLdy.shape != (batch, self.output_dim):
            raise ShapeError(
                f"expected cotangent shape {(batch, self.output_dim)}, got {dLdy.shape}"
            )
        n1 = self.degree + 1
        g = t.reshape(batch, -1).T @ dLdy  # [(n+1)*in, out]
        self.grad_coeffs[...] = g.reshape(n1, self.input_dim, self.output_dim).transpose(1, 2, 0)
        gb = (dLdy @ w.T).reshape(batch, n1, self.input_dim)[:, 1:]  # dL/dP_k, k >= 1
        k = np.arange(1, n1, dtype=xt.dtype)
        s = 0.0 if self.kind is PolyKind.FIRST else 1.0
        return (np.einsum("bki,k,bki->bi", gb, k + s, t[:, :-1])
                - xt * np.einsum("bki,k,bki->bi", gb, k, t[:, 1:]))


def init_coeffs(layer, method, rng):
    """Populate a ChebyKanLayer's coefficients in place.

    Fan-in/fan-out count basis terms, not just features: each output unit sums
    input_dim*(degree+1) weighted basis values, so fan_in = input_dim*(degree+1)
    and fan_out = output_dim*(degree+1). The orthogonal method QR-orthonormalizes
    a standard normal matrix of shape (input_dim*(degree+1)) x output_dim and
    reshapes it into the coefficient tensor.
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
        rows, cols = layer.input_dim * n1, layer.output_dim
        m = rng.normal(0.0, 1.0, (rows, cols))
        if rows >= cols:
            q, r = np.linalg.qr(m)
            q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
        else:
            q, r = np.linalg.qr(m.T)
            q = (q * np.where(np.diag(r) < 0, -1.0, 1.0)).T
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
        x = ndcore.as_mat(x, self.gamma.dtype)
        if x.shape[1] != self.dim:
            raise ShapeError(f"expected input width {self.dim}, got {x.shape[1]}")
        d = x - x.mean(axis=1, keepdims=True)
        var = np.mean(d * d, axis=1, keepdims=True)  # np.var's own steps
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = d * inv
        if self.training:
            self._cache = (xhat, inv)
        return self.gamma * xhat + self.beta

    def backward(self, dLdy):
        if self._cache is None:
            raise RuntimeError("backward called before forward (or layer is in eval mode)")
        dLdy = ndcore.as_mat(dLdy, self.gamma.dtype)
        xhat, inv = self._cache
        if dLdy.shape != xhat.shape:
            raise ShapeError(f"expected cotangent shape {xhat.shape}, got {dLdy.shape}")
        self.grad_beta[...] = dLdy.sum(axis=0)
        self.grad_gamma[...] = (dLdy * xhat).sum(axis=0)
        d = self.dim
        dxhat = dLdy * self.gamma
        return (inv / d) * (
            d * dxhat
            - dxhat.sum(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
        )
