import itertools

import numpy as np
import pytest

from chebykan.chebyshev import PolyKind, eval_basis
from chebykan.layers import EVAL_BASIS_BYTES, ChebyKanLayer, InitMethod, LayerNorm, init_coeffs
from chebykan.ndcore import Rng, ShapeError
from chebykan.network import Sequential

F, S = PolyKind.FIRST, PolyKind.SECOND


def _filled_layer(in_dim, out_dim, degree, kind=F, seed=0, dtype=np.float64):
    layer = ChebyKanLayer(in_dim, out_dim, degree, kind, dtype)
    init_coeffs(layer, InitMethod.LECUN, Rng(seed, "layer"))
    return layer


def test_forward_shape_and_einsum_equivalence():
    for kind, degree, dtype in itertools.product((F, S), (0, 5), (np.float64, np.float32)):
        case = f"{kind}, degree {degree}, {np.dtype(dtype)}"
        f64 = dtype == np.float64
        layer = _filled_layer(2, 3, degree, kind, dtype=dtype)
        x = Rng(1, "x").uniform(-2.0, 2.0, (3, 2))
        y = layer.forward(x)
        assert y.shape == (3, 3) and y.dtype == dtype, case
        xt = np.tanh(x.astype(dtype))
        basis = np.stack([np.stack([eval_basis(v, degree, kind) for v in row]) for row in xt])
        assert basis.shape == (3, 2, degree + 1)
        expect = np.einsum("bij,ioj->bo", basis, layer.coeffs)
        np.testing.assert_allclose(y, expect, atol=1e-14 if f64 else 1e-5, err_msg=case)
        # eval mode builds the basis a block of rows at a time; a batch of
        # several blocks and a ragged tail, and an empty batch, match the
        # training forward
        layer = _filled_layer(784, 4, degree, kind, dtype=dtype)
        rows = EVAL_BASIS_BYTES // (784 * (degree + 1) * np.dtype(dtype).itemsize)
        tol = 1e-12 if f64 else 1e-5  # a block's own BLAS call may sum in another order
        for batch in (2 * rows + 37, 0):
            x = Rng(2, "x").uniform(-2.0, 2.0, (batch, 784))
            layer.training = True
            want = layer.forward(x)
            layer.training = False
            got = layer.forward(x)
            assert got.shape == want.shape == (batch, 4) and got.dtype == dtype, case
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol, err_msg=case)


def test_inputs_outside_unit_interval_are_squashed():
    layer = _filled_layer(2, 2, 4)
    y = layer.forward(np.array([[100.0, -57.0], [3.0, 0.0]]))
    assert np.all(np.isfinite(y))


def test_coeff_grad_matches_finite_difference():
    layer = _filled_layer(3, 2, 3, kind=S)
    x = Rng(2, "x").uniform(-1.0, 1.0, (4, 3))
    layer.forward(x)
    dLdy = np.ones((4, 2))
    layer.backward(dLdy)
    h = 1e-6
    for idx in [(0, 0, 0), (1, 1, 2), (2, 0, 3)]:
        old = layer.coeffs[idx]
        layer.coeffs[idx] = old + h
        lp = layer.forward(x).sum()
        layer.coeffs[idx] = old - h
        lm = layer.forward(x).sum()
        layer.coeffs[idx] = old
        layer.forward(x)
        layer.backward(dLdy)
        np.testing.assert_allclose(layer.grad_coeffs[idx], (lp - lm) / (2 * h),
                                   rtol=1e-5, atol=1e-9)


def test_input_grad_matches_finite_difference():
    layer = _filled_layer(2, 2, 4)
    x = np.array([[0.3, -0.7], [1.2, 0.1]])
    layer.forward(x)
    dLdx = layer.backward(np.ones((2, 2)))
    h = 1e-6
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        lp = layer.forward(xp).sum()
        xp.flat[i] -= 2 * h
        lm = layer.forward(xp).sum()
        np.testing.assert_allclose(dLdx.flat[i], (lp - lm) / (2 * h),
                                   rtol=1e-5, atol=1e-9)


def test_degree_zero_input_grad_is_exactly_zero():
    layer = _filled_layer(3, 2, 0)
    x = Rng(3, "x").uniform(-1.0, 1.0, (5, 3))
    layer.forward(x)
    dLdx = layer.backward(np.ones((5, 2)))
    assert np.all(dLdx == 0.0)


def test_backward_before_forward_raises():
    layer = _filled_layer(2, 2, 3)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((1, 2)))
    # a wrong input width, then a cotangent whose batch or width is wrong
    for layer, width in ((_filled_layer(2, 3, 3), 2), (LayerNorm(3), 3)):
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((4, width + 1)))
        layer.forward(np.zeros((4, width)))
        for bad in ((4, 2), (5, 3)):
            with pytest.raises(ShapeError):
                layer.backward(np.ones(bad))


def test_eval_mode_does_not_cache():
    layer = _filled_layer(2, 2, 3)
    layer.training = False
    layer.forward(np.zeros((1, 2)))
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((1, 2)))
    # a cache from a training forward would give x1's gradient for x2, also
    # once the layer is back in training mode
    x1, x2 = Rng(4, "x").uniform(-1.0, 1.0, (2, 3, 2))
    kan, ln = _filled_layer(2, 2, 3), LayerNorm(2)
    for layers in ([kan], [ln], [kan, ln]):
        model = Sequential(layers)
        model.forward(x1)
        model.eval().forward(x2)
        with pytest.raises(RuntimeError, match="eval mode"):
            model.backward(np.ones((3, 2)))
        model.train()
        for stage in [model] + layers:
            with pytest.raises(RuntimeError, match="before forward"):
                stage.backward(np.ones((3, 2)))


def test_xavier_bounds_and_fan_scaling():
    layer = ChebyKanLayer(10, 20, 4, F)
    init_coeffs(layer, InitMethod.XAVIER, Rng(0, "init"))
    fan_in, fan_out = 10 * 5, 20 * 5
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    assert np.max(np.abs(layer.coeffs)) <= bound
    assert np.max(np.abs(layer.coeffs)) > 0.5 * bound


def test_init_methods_differ_and_are_seeded():
    draws = {}
    for method in InitMethod:
        layer = ChebyKanLayer(4, 4, 3, F)
        init_coeffs(layer, method, Rng(5, "init"))
        draws[method] = layer.coeffs.copy()
        layer2 = ChebyKanLayer(4, 4, 3, F)
        init_coeffs(layer2, method, Rng(5, "init"))
        np.testing.assert_array_equal(layer.coeffs, layer2.coeffs)
    methods = list(InitMethod)
    for a in range(len(methods)):
        for b in range(a + 1, len(methods)):
            assert not np.array_equal(draws[methods[a]], draws[methods[b]])


def test_orthogonal_init_has_orthonormal_columns():
    layer = ChebyKanLayer(5, 3, 2, F)  # 5*3 = 15 rows >= 3 columns
    init_coeffs(layer, InitMethod.ORTHOGONAL, Rng(0, "init"))
    m = layer.coeffs.transpose(0, 2, 1).reshape(15, 3)
    np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-12)
    # a wide layer, fewer rows than columns, has orthonormal rows instead
    for in_dim, degree in ((1, 0), (2, 1)):
        layer = ChebyKanLayer(in_dim, 8, degree, F)
        init_coeffs(layer, InitMethod.ORTHOGONAL, Rng(0, "init"))
        rows = in_dim * (degree + 1)
        m = layer.coeffs.transpose(0, 2, 1).reshape(rows, 8)
        np.testing.assert_allclose(m @ m.T, np.eye(rows), atol=1e-12)


def test_normal_init_is_standard_normal():
    layer = ChebyKanLayer(40, 40, 4, F)
    init_coeffs(layer, InitMethod.NORMAL, Rng(1, "init"))
    assert abs(layer.coeffs.std() - 1.0) < 0.05
    assert abs(layer.coeffs.mean()) < 0.05


def test_layernorm_normalizes_then_affines():
    ln = LayerNorm(8)
    x = Rng(4, "x").normal(3.0, 5.0, (16, 8))
    y = ln.forward(x)
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)
    ln.gamma[:] = 2.0
    ln.beta[:] = -1.0
    y2 = ln.forward(x)
    np.testing.assert_allclose(y2, 2.0 * y - 1.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layernorm_forward_is_the_np_var_expression_exactly(dtype):
    ln = LayerNorm(24, dtype=dtype)
    x = Rng(5, "x").normal(3.0, 5.0, (33, 24)).astype(dtype)
    x[0] = 7.0  # a constant row: zero variance, output exactly beta
    expect = (x - x.mean(1, keepdims=True)) * (1.0 / np.sqrt(x.var(1, keepdims=True) + ln.eps))
    np.testing.assert_array_equal(ln.forward(x), expect)
    assert not ln.forward(x)[0].any()


def test_layernorm_backward_matches_finite_difference():
    ln = LayerNorm(5)
    ln.gamma[:] = Rng(6, "g").uniform(0.5, 1.5, 5)
    ln.beta[:] = Rng(6, "b").uniform(-0.5, 0.5, 5)
    x = Rng(6, "x").normal(0.0, 2.0, (3, 5))
    w = Rng(6, "w").uniform(0.5, 1.5, (3, 5))
    ln.forward(x)
    dLdx = ln.backward(w)
    h = 1e-6
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        lp = np.sum(w * ln.forward(xp))
        xp.flat[i] -= 2 * h
        lm = np.sum(w * ln.forward(xp))
        np.testing.assert_allclose(dLdx.flat[i], (lp - lm) / (2 * h),
                                   rtol=1e-4, atol=1e-8)
    ln.forward(x)
    ln.backward(w)
    for arr, grad in ((ln.gamma, ln.grad_gamma), (ln.beta, ln.grad_beta)):
        for i in range(arr.size):
            old = arr[i]
            arr[i] = old + h
            lp = np.sum(w * ln.forward(x))
            arr[i] = old - h
            lm = np.sum(w * ln.forward(x))
            arr[i] = old
            np.testing.assert_allclose(grad[i], (lp - lm) / (2 * h),
                                       rtol=1e-4, atol=1e-8)


def test_params_and_grads_line_up():
    layer = _filled_layer(2, 3, 4)
    coeffs = layer.coeffs.copy()
    ln = LayerNorm(3)
    model = Sequential([layer, ln])
    # the KAN block is degree-major, [degree+1, in, out]
    assert [p.shape for p in model.params()] == [(5, 2, 3), (3,), (3,)]
    assert model.flat_params.shape == model.flat_grads.shape == (30 + 3 + 3,)
    # the stack keeps the layers' values and gradients sit at the same offsets
    np.testing.assert_array_equal(layer.coeffs, coeffs)
    np.testing.assert_array_equal(model.flat_params[30:], [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    assert np.shares_memory(layer.grad_coeffs, model.flat_grads[:30])
    assert np.shares_memory(ln.grad_beta, model.flat_grads[33:])
    # coeffs[i, o, j] is w[j, i, o], at offset (j*2 + i)*3 + o of flat_params
    layer.coeffs[1, 2, 3] = 7.0
    assert model.flat_params[(3 * 2 + 1) * 3 + 2] == layer.w[3, 1, 2] == 7.0
    # the forward's [(degree+1)*in, out] matrix is a view, not a copy
    assert np.shares_memory(layer.w.reshape(-1, 3), model.flat_params[:30])
    model.flat_grads[:] = np.nan
    layer.forward(Rng(1, "x").uniform(-1.0, 1.0, (4, 2)))
    layer.backward(np.ones((4, 3)), input_grad=False)
    assert np.isfinite(model.flat_grads[:30]).all()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ChebyKanLayer(0, 2, 3, F)
    with pytest.raises(ValueError):
        ChebyKanLayer(2, 2, -1, F)
    with pytest.raises(ValueError):
        LayerNorm(0)
