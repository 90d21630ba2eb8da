"""Losses and optimizers.

Both losses return (scalar loss, gradient w.r.t. their first argument) so the
training loop never re-derives gradients. Optimizers update one parameter
array (a model's ``flat_params``) in place from a gradient array of the same
shape; their state arrays are allocated on the first step.
"""

import math

import numpy as np

from .ndcore import ShapeError


def mse_loss(pred, target):
    """Mean of (pred - target)^2 over every entry; grad is 2*(pred-target)/N."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


def softmax_cross_entropy(logits, labels):
    """Stabilized log-sum-exp cross entropy; grad is (softmax - onehot)/batch."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    batch, k = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels must have shape ({batch},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(batch)
    loss = float(-logp[rows, labels].mean())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    return loss, grad / batch


class Adam:
    """Bias-corrected adaptive moment estimation.

    A step allocates nothing: the moments and two scratch arrays for the
    update's temporaries are made on the first step and reused.
    """

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if not 0 < lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None
        self._scratch = None

    def step(self, params, grads):
        if params.shape != grads.shape:
            raise ShapeError(f"shape mismatch: params {params.shape}, grads {grads.shape}")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self._scratch = (np.empty_like(params), np.empty_like(params))
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        num, den = self._scratch
        # the textbook update, p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), one
        # ufunc at a time in the same order, into the two scratch arrays
        m *= self.beta1
        m += np.multiply(grads, 1.0 - self.beta1, out=num)
        v *= self.beta2
        np.multiply(grads, grads, out=num)
        v += np.multiply(num, 1.0 - self.beta2, out=num)
        np.sqrt(np.divide(v, bc2, out=den), out=den)
        den += self.eps
        np.divide(m, bc1, out=num)
        num *= self.lr
        num /= den
        params -= num


class Sgd:
    """Momentum SGD: v <- momentum*v + g; p <- p - lr*v."""

    def __init__(self, lr, momentum=0.0):
        if not 0 < lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.velocity = None

    def step(self, params, grads):
        if params.shape != grads.shape:
            raise ShapeError(f"shape mismatch: params {params.shape}, grads {grads.shape}")
        if self.velocity is None:
            self.velocity = np.zeros_like(params)
        self.velocity *= self.momentum
        self.velocity += grads
        params -= self.lr * self.velocity
