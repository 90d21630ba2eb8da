"""Losses and the optimizer.

Both losses return (scalar loss, gradient w.r.t. their first argument) so the
training loop never re-derives gradients. Adam, the one optimizer, updates
one parameter array (a model's ``flat_params``) in place from a gradient array
of the same shape; its state arrays are allocated on the first step.
"""

import math

import numpy as np

from .ndcore import ShapeError, check_real


def mse_loss(pred, target):
    """Mean of (pred - target)^2 over every entry; grad is 2*(pred-target)/N."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeError(f"empty batch: pred and target have shape {pred.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


def softmax_cross_entropy(logits, labels):
    """Stabilized log-sum-exp cross entropy; grad is (softmax - onehot)/batch."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    batch, k = logits.shape
    if batch == 0:
        raise ShapeError(f"empty batch: logits have shape {logits.shape}")
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

    ``m`` and ``v`` hold the textbook moments divided by ``1 - beta1`` and
    ``1 - beta2``: ``m <- beta1*m + g`` and ``v <- beta2*v + g*g``. With
    ``bc_i = 1 - beta_i**t`` and ``c = sqrt((1 - beta2) / bc2)``, the textbook
    step ``lr * m_hat / (sqrt(v_hat) + eps)`` is
    ``lr*(1-beta1)/(bc1*c) * m / (sqrt(v) + eps/c)``: both bias corrections
    fold into two scalars (Kingma & Ba, ICLR 2015, section 2), and a step
    makes ten passes over the parameters. It equals the textbook arithmetic
    up to rounding, not bit for bit. A step allocates nothing: the moments
    and one scratch array are made on the first step and reused. ``lr``, the
    one setting, is a finite real > 0, held as a float (``ndcore.check_real``);
    the betas and eps are constants, Kingma & Ba's defaults.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr=1e-3):
        self.lr = check_real("lr", lr, above=0)
        self.t = 0
        self.m = None
        self.v = None
        self._scratch = None

    def step(self, params, grads):
        # a step whose grads, or whose params against the moments of earlier
        # steps, differ in shape changes nothing
        if params.shape != grads.shape:
            raise ShapeError(f"shape mismatch: params {params.shape}, grads {grads.shape}")
        if self.m is not None and params.shape != self.m.shape:
            raise ShapeError(f"shape mismatch: params {params.shape}, but this optimizer "
                             f"stepped params of shape {self.m.shape}")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self._scratch = np.empty_like(params)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        c = math.sqrt((1.0 - self.beta2) / (1.0 - self.beta2 ** self.t))
        m, v, s = self.m, self.v, self._scratch
        m *= self.beta1
        m += grads
        np.square(grads, out=s)  # twice as fast as multiply(grads, grads)
        v *= self.beta2
        v += s
        np.sqrt(v, out=s)
        s += self.eps / c
        np.divide(m, s, out=s)
        s *= self.lr * (1.0 - self.beta1) / (bc1 * c)
        params -= s
