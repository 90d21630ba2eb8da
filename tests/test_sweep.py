"""Seeded property sweep over the ChebyKanLayer: widths 1-5, degree 0-8, both
kinds, batch sizes 1, 3 and 7, drawn from the package's own Rng.

It reaches the corners grad_check never draws (degrees 7-8, float32), so it
guards the closed-form input gradient ((k+s) P_{k-1} - k x P_k) everywhere.
"""

import numpy as np
import pytest

from chebykan.chebyshev import PolyKind, eval_basis, eval_basis_derivative
from chebykan.experiments import _forward_hp
from chebykan.layers import InitMethod
from chebykan.ndcore import Rng
from chebykan.network import ArchSpec, build

KINDS = (PolyKind.FIRST, PolyKind.SECOND)
H = 1e-6


def _cases():
    """One case per (degree, kind, repeat): widths, batch, input, loss weights."""
    root = Rng(2024, "sweep")
    for degree in range(9):
        for kind in KINDS:
            for rep in range(2):
                r = root.substream(f"{degree}/{kind.value}/{rep}")
                widths = [r.integers(1, 6) for _ in range(r.integers(2, 4))]
                batch = (1, 3, 7)[r.integers(0, 3)]
                x = r.uniform(-2.0, 2.0, (batch, widths[0]))
                w = r.uniform(-1.0, 1.0, (batch, widths[-1]))
                yield widths, degree, kind, x, w, r.substream("init")


CASES = list(_cases())


def _model(widths, degree, kind, rng, dtype):
    spec = ArchSpec(widths=widths, degree=degree, kind=kind, layernorm_between=False)
    return build(spec, InitMethod.LECUN, rng, dtype)


def _grads(model, x, w):
    """dL/dparams and dL/dx of L = sum(w * y)."""
    model.train()
    model.forward(x)
    dLdx = model.backward(w)
    return model.flat_grads.copy(), dLdx


def _central_difference(model, x, w, arr):
    """Central differences of sum(w * _forward_hp(model, x)) over every entry
    of `arr` (the parameter vector or x itself), divided by the stored step."""
    w_hp = np.asarray(w, dtype=np.longdouble)
    out = np.empty(arr.size)
    for i in range(arr.size):
        old = arr.flat[i]
        arr.flat[i] = old + H
        up, lp = arr.flat[i], np.sum(w_hp * _forward_hp(model, x))
        arr.flat[i] = old - H
        down, lm = arr.flat[i], np.sum(w_hp * _forward_hp(model, x))
        arr.flat[i] = old
        out[i] = float((lp - lm) / np.longdouble(up - down))
    return out


def test_forward_equals_einsum_over_eval_basis():
    for widths, degree, kind, x, _, init in CASES:
        layer = _model(widths[:2], degree, kind, init, np.float64).layers[0]
        basis = np.array([[eval_basis(v, degree, kind) for v in row] for row in np.tanh(x)])
        expect = np.einsum("bij,ioj->bo", basis, layer.coeffs)
        np.testing.assert_allclose(layer.forward(x), expect, rtol=1e-12, atol=1e-12)


def test_float64_gradients_match_central_differences():
    for widths, degree, kind, x, w, init in CASES:
        model = _model(widths, degree, kind, init, np.float64)
        grad_params, dLdx = _grads(model, x, w)
        label = (widths, degree, kind, x.shape[0])
        np.testing.assert_allclose(grad_params,
                                   _central_difference(model, x, w, model.flat_params),
                                   rtol=1e-5, atol=1e-9, err_msg=str(label))
        xp = x.copy()
        np.testing.assert_allclose(dLdx.ravel(), _central_difference(model, xp, w, xp),
                                   rtol=1e-5, atol=1e-9, err_msg=str(label))


def test_float32_gradients_match_float64():
    for widths, degree, kind, x, w, init in CASES:
        g64, dx64 = _grads(_model(widths, degree, kind, init, np.float64), x, w)
        g32, dx32 = _grads(_model(widths, degree, kind, init, np.float32), x, w)
        assert g32.dtype == dx32.dtype == np.float32
        label = str((widths, degree, kind, x.shape[0]))
        # float32 rounding of the coefficients, the basis and every sum,
        # relative to the largest entry of each gradient
        for lo, hi in ((g32, g64), (dx32, dx64)):
            scale = max(float(np.max(np.abs(hi), initial=0.0)), 1e-30)
            np.testing.assert_allclose(lo, hi, rtol=1e-4, atol=1e-5 * scale, err_msg=label)


@pytest.mark.parametrize("kind", KINDS)
def test_eval_basis_derivative_matches_finite_difference(kind):
    for x in np.linspace(-1.0, 1.0, 17):
        d = eval_basis_derivative(x, 8, kind)
        fd = (eval_basis(x + H, 8, kind) - eval_basis(x - H, 8, kind)) / (2 * H)
        np.testing.assert_allclose(d, fd, rtol=1e-7, atol=1e-7)
