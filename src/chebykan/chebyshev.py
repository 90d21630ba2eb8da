"""Chebyshev polynomials of the first and second kind.

Both families satisfy the same three-term recurrence

    P_k(x) = 2x P_{k-1}(x) - P_{k-2}(x),

differing only in their seeds: T_0 = 1, T_1 = x for the first kind and
U_0 = 1, U_1 = 2x for the second. Evaluation is always by the recurrence,
never by cos(n arccos x): the recurrence is numerically stable, is defined on
all of R (inputs can stray outside [-1, 1] before a layer's internal tanh),
and avoids arccos domain errors.

Reference values used throughout the tests: T_n(cos t) = cos(n t),
U_n(cos t) = sin((n+1) t) / sin t, roots of T_n at cos((2k+1)pi/(2n)), and
extrema of T_n at cos(k pi / n) where it alternates between +1 and -1.
"""

from enum import Enum

import numpy as np


class PolyKind(Enum):
    FIRST = "first"
    SECOND = "second"


def check_kind(kind):
    """``kind``, or ValueError unless it is a PolyKind member: code tests it
    for a member by identity, so a string such as "second" would pass as
    neither kind."""
    if not isinstance(kind, PolyKind):
        raise ValueError(f"kind must be a PolyKind, got {kind!r}")
    return kind


def _basis_stack(x, degree, kind):
    """P_0..P_degree of every element of x, stacked along a new leading axis:
    out[k] is P_k, shaped like x, so a [batch, in] input gives
    [degree+1, batch, in] and a vector [n] gives [degree+1, n].

    Each P_k fills its own contiguous slab in place (``_fill_basis``). The
    stack has x's dtype: a float64 array gives float64, a float32 array
    float32.
    """
    x = np.asarray(x)
    out = np.empty((degree + 1,) + x.shape, dtype=x.dtype)
    out[0] = 1.0
    if degree >= 1:
        out[1] = x
        _fill_basis(out[1:], kind)
    return out


def _fill_basis(t, kind):
    """Fill P_1..P_n into a stack t of n >= 1 slabs in place: t[0] holds x on
    entry and t[k-1] holds P_k on exit. P_0 = 1 needs no slab, and the second
    kind's U_1 = 2x, doubled in place, is also its 2x."""
    x2 = np.multiply(t[0], 2.0, out=t[0] if kind is PolyKind.SECOND else None)
    for k in range(2, len(t) + 1):
        p = np.multiply(x2, t[k - 2], out=t[k - 1])
        p -= t[k - 3] if k > 2 else 1.0


def eval_basis(x, degree, kind=PolyKind.FIRST):
    """[P_0(x), ..., P_degree(x)] for a scalar x, by the three-term recurrence."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return _basis_stack([float(x)], degree, check_kind(kind))[:, 0]


def eval_basis_derivative(x, degree, kind=PolyKind.FIRST):
    """[P'_0(x), ..., P'_degree(x)] for a scalar x; P'_0 is always 0.

    Differentiating the recurrence gives P'_k = 2 P_{k-1} + 2x P'_{k-1} - P'_{k-2}
    over the same-kind basis, seeded P'_0 = 0 and P'_1 = 1 (first kind) or 2
    (second kind). It stays finite at x = +/-1, where the closed forms have a
    1/(1 - x^2) singularity.
    """
    p = eval_basis(x, degree, kind)  # checks degree, kind and x
    x = float(x)
    out = np.zeros(degree + 1)
    if degree >= 1:
        out[1] = 1.0 if kind is PolyKind.FIRST else 2.0
        for k in range(2, degree + 1):
            out[k] = 2.0 * p[k - 1] + 2.0 * x * out[k - 1] - out[k - 2]
    return out


def roots(n):
    """The n zeros of T_n: cos((2k+1) pi / (2n)), k = 0..n-1, strictly decreasing."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(n, dtype=np.float64)
    return np.cos((2.0 * k + 1.0) / (2.0 * n) * np.pi)


def extrema(n):
    """The n+1 extrema of T_n: cos(k pi / n), k = 0..n, where T_n alternates +/-1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(n + 1, dtype=np.float64)
    return np.cos(k * np.pi / n)


def gauss_chebyshev(nodes, kind=PolyKind.FIRST):
    """Gauss-Chebyshev nodes and weights of the given kind.

    First kind: nodes cos((2k+1) pi / (2N)) with uniform weight pi/N, for the
    weight 1/sqrt(1-x^2). Second kind: nodes cos(k pi / (N+1)), k = 1..N, with
    weights (pi/(N+1)) sin^2(k pi/(N+1)), for the weight sqrt(1-x^2). Both are
    exact for polynomial integrands of degree < 2N.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if check_kind(kind) is PolyKind.FIRST:
        k = np.arange(nodes, dtype=np.float64)
        x = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * nodes))
        w = np.full(nodes, np.pi / nodes)
    else:
        t = np.arange(1, nodes + 1, dtype=np.float64) * np.pi / (nodes + 1)
        x = np.cos(t)
        w = (np.pi / (nodes + 1)) * np.sin(t) ** 2
    return x, w


def orthogonality_integral(m, n, kind=PolyKind.FIRST, nodes=64):
    """Weighted inner product of P_m and P_n over [-1, 1] by matching quadrature.

    For the first kind this is 0 (m != n), pi/2 (m = n != 0), or pi (m = n = 0);
    for the second kind, 0 (m != n) or pi/2 (m = n).
    """
    if m < 0 or n < 0:
        raise ValueError("polynomial indices must be >= 0")
    if nodes < m + n + 1:
        raise ValueError(
            f"need at least m+n+1 = {m + n + 1} nodes for an exact product, got {nodes}"
        )
    x, w = gauss_chebyshev(nodes, kind)
    vals = _basis_stack(x, max(m, n), kind)
    return float(np.sum(w * vals[m] * vals[n]))
