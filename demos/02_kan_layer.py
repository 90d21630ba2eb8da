"""
Anatomy of one Chebyshev KAN layer
==================================

A layer stores its coefficients degree-major, a tensor w of shape
[degree+1, in, out]; layer.coeffs is a view of it in the checkpoint's
[in, out, degree+1] order, C[i, o, j] = w[j, i, o]. The forward pass squashes
inputs through tanh, expands each squashed feature in the polynomial basis,
and contracts. P_0 is the constant 1, so the terms w[0, i, o] act only
through their sum and enter as one bias. The layer builds the rest of its
basis degree-major too, P_1..P_degree in a [degree, batch, in] tensor T
whose slab T[j-1] is one contiguous [batch, in] array, so the contraction is
one batched matmul of each slab against its [in, out] panel w[j], and a sum
over j:

    y[b, o] = sum_i w[0, i, o] + sum_{j>=1} sum_i T[j-1, b, i] * w[j, i, o]

One loop does this a block of rows at a time: in eval mode a block holds at
most ndcore.BLOCK_BYTES of basis, and the blocks spread over every core in
the CPU mask; in training mode it is the whole batch, whose basis backward
reads. Below, the same contraction is spelled out by hand on
a [batch, in, degree+1] basis built one value at a time, against C.

Backward is hand-derived, so here we audit it: one entry against a finite
difference, then every entry of random networks against complex-step
derivatives (grad_check).
"""

import numpy as np

from chebykan import ChebyKanLayer, InitMethod, PolyKind, Rng, init_coeffs
from chebykan.chebyshev import eval_basis
from chebykan.experiments import grad_check

# a small layer: 2 inputs, 3 outputs, degree 3
layer = ChebyKanLayer(2, 3, degree=3, kind=PolyKind.FIRST)
init_coeffs(layer, InitMethod.XAVIER, Rng(0, "demo"))
print(f"coefficient tensor shape: {layer.coeffs.shape}")

x = Rng(0, "x").uniform(-2.0, 2.0, (3, 2))
y = layer.forward(x)
print(f"input {x.shape} -> output {y.shape}")

# the contraction spelled out by hand agrees with the layer
xt = np.tanh(x)
basis = np.stack([np.stack([eval_basis(v, 3) for v in row]) for row in xt])
print(f"basis tensor shape: {basis.shape}")
by_hand = np.einsum("bij,ioj->bo", basis, layer.coeffs)
print(f"max |layer - einsum|: {np.max(np.abs(y - by_hand)):.2e}")

# backward returns dL/dx and fills grad_coeffs; check one entry numerically
dLdy = np.ones_like(y)
dLdx = layer.backward(dLdy)
h = 1e-6
idx = (1, 2, 3)
old = layer.coeffs[idx]
layer.coeffs[idx] = old + h
up = layer.forward(x).sum()
layer.coeffs[idx] = old - h
down = layer.forward(x).sum()
layer.coeffs[idx] = old
print(f"\ngrad_coeffs{idx}: analytic {layer.grad_coeffs[idx]:+.8f}, "
      f"numeric {(up - down) / (2 * h):+.8f}")

# degree 0 is a constant function of the input, so dL/dx vanishes identically
flat = ChebyKanLayer(2, 3, degree=0, kind=PolyKind.FIRST)
init_coeffs(flat, InitMethod.XAVIER, Rng(0, "flat"))
flat.forward(x)
print(f"degree-0 input gradient, max |dLdx|: {np.max(np.abs(flat.backward(dLdy)))}")

# the full harness: random widths, degrees 0-6, both kinds, LayerNorm on/off
err = grad_check(trials=25)
print(f"\ngradient check over 25 random networks: max_rel_err = {err:.3e}")
assert err <= 1e-5
