import numpy as np
import pytest

from chebykan.chebyshev import (PolyKind, _basis_stack, eval_basis,
                                eval_basis_derivative, extrema, gauss_chebyshev,
                                orthogonality_integral, roots)

F, S = PolyKind.FIRST, PolyKind.SECOND


def test_basis_values_at_half():
    np.testing.assert_allclose(eval_basis(0.5, 3, F), [1.0, 0.5, -0.5, -1.0],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(eval_basis(0.5, 3, S), [1.0, 1.0, 0.0, -1.0],
                               rtol=0, atol=1e-15)


def test_basis_values_at_one():
    # T_n(1) = 1, U_n(1) = n + 1
    np.testing.assert_allclose(eval_basis(1.0, 5, F), np.ones(6), atol=1e-15)
    np.testing.assert_allclose(eval_basis(1.0, 5, S), np.arange(1.0, 7.0),
                               atol=1e-15)


def test_basis_values_at_zero_alternate():
    # T at 0: 1, 0, -1, 0, 1, ...; U at 0: same pattern
    t = eval_basis(0.0, 6, F)
    u = eval_basis(0.0, 6, S)
    expect = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]
    np.testing.assert_allclose(t, expect, atol=1e-15)
    np.testing.assert_allclose(u, expect, atol=1e-15)


def test_trig_consistency_first_kind():
    # T_n(cos theta) = cos(n theta), checked without ever using arccos
    theta = np.linspace(0.01, np.pi - 0.01, 200)
    x = np.cos(theta)
    vals = np.stack([eval_basis(xi, 12, F) for xi in x])
    for n in range(13):
        np.testing.assert_allclose(vals[:, n], np.cos(n * theta), atol=1e-12)


def test_trig_consistency_second_kind():
    # U_n(cos theta) * sin theta = sin((n+1) theta)
    theta = np.linspace(0.01, np.pi - 0.01, 200)
    x = np.cos(theta)
    vals = np.stack([eval_basis(xi, 12, S) for xi in x])
    for n in range(13):
        np.testing.assert_allclose(vals[:, n] * np.sin(theta),
                                   np.sin((n + 1) * theta), atol=1e-12)


def test_boundedness_on_interval():
    x = np.linspace(-1, 1, 2001)
    vals = np.stack([eval_basis(xi, 10, F) for xi in x])
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_derivative_identity_first_kind():
    # T'_n = n * U_{n-1}
    for x in np.linspace(-0.99, 0.99, 23):
        d = eval_basis_derivative(x, 7, F)
        u = eval_basis(x, 6, S)
        expect = np.concatenate([[0.0], np.arange(1, 8) * u])
        np.testing.assert_allclose(d, expect, atol=1e-12)


def test_derivative_matches_finite_difference():
    h = 1e-7
    for kind in (F, S):
        for x in (-0.8, -0.3, 0.0, 0.4, 0.9):
            d = eval_basis_derivative(x, 6, kind)
            fd = (eval_basis(x + h, 6, kind) - eval_basis(x - h, 6, kind)) / (2 * h)
            np.testing.assert_allclose(d, fd, atol=1e-6)


def test_derivative_finite_at_endpoints():
    # the second-kind recurrence stays finite where the closed form blows up
    d = eval_basis_derivative(1.0, 5, S)
    assert np.all(np.isfinite(d))
    # U'_n(1) = n(n+1)(n+2)/3
    n = np.arange(6)
    np.testing.assert_allclose(d, n * (n + 1) * (n + 2) / 3.0, atol=1e-12)


def test_degree_zero_derivative_is_zero():
    np.testing.assert_array_equal(eval_basis_derivative(0.3, 0, F), [0.0])


def test_roots_annihilate_and_order():
    for n in (1, 2, 5, 9):
        r = roots(n)
        assert r.shape == (n,)
        assert np.all(np.diff(r) < 0)
        assert np.all((r > -1) & (r < 1))
        tn = np.array([eval_basis(x, n, F)[n] for x in r])
        np.testing.assert_allclose(tn, 0.0, atol=1e-12)
    np.testing.assert_allclose(roots(2), [np.sqrt(0.5), -np.sqrt(0.5)],
                               atol=1e-15)


def test_extrema_alternate():
    for n in (1, 3, 6):
        e = extrema(n)
        assert e.shape == (n + 1,)
        np.testing.assert_allclose(e[0], 1.0, atol=1e-15)
        np.testing.assert_allclose(e[-1], -1.0, atol=1e-15)
        tn = np.array([eval_basis(x, n, F)[n] for x in e])
        np.testing.assert_allclose(tn, (-1.0) ** np.arange(n + 1), atol=1e-12)


def test_quadrature_nodes_and_weights():
    x, w = gauss_chebyshev(4, F)
    np.testing.assert_allclose(w, np.full(4, np.pi / 4))
    np.testing.assert_allclose(x, np.cos((2 * np.arange(4) + 1) * np.pi / 8))
    x2, w2 = gauss_chebyshev(3, S)
    t = np.arange(1, 4) * np.pi / 4
    np.testing.assert_allclose(x2, np.cos(t))
    np.testing.assert_allclose(w2, (np.pi / 4) * np.sin(t) ** 2)
    # the second-kind rule integrates sqrt(1-x^2) itself to pi/2
    np.testing.assert_allclose(np.sum(w2), np.pi / 2, atol=1e-12)


def test_orthogonality_first_kind():
    assert abs(orthogonality_integral(2, 3, F)) < 1e-12
    np.testing.assert_allclose(orthogonality_integral(0, 0, F), np.pi,
                               atol=1e-12)
    np.testing.assert_allclose(orthogonality_integral(4, 4, F), np.pi / 2,
                               atol=1e-12)
    for m in range(7):
        for n in range(7):
            got = orthogonality_integral(m, n, F)
            want = 0.0 if m != n else (np.pi if m == 0 else np.pi / 2)
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_orthogonality_second_kind():
    for m in range(7):
        for n in range(7):
            got = orthogonality_integral(m, n, S)
            want = np.pi / 2 if m == n else 0.0
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_orthogonality_needs_enough_nodes():
    with pytest.raises(ValueError):
        orthogonality_integral(40, 40, F, nodes=64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", [F, S])
def test_basis_stack_is_the_recurrence_degree_major_exactly(kind, dtype):
    x = np.random.default_rng(3).uniform(-1.3, 1.3, (6, 5)).astype(dtype)
    for degree in range(9):
        p = [np.ones_like(x), x if kind is F else 2.0 * x]
        while len(p) <= degree:
            p.append(2.0 * x * p[-1] - p[-2])
        expect = np.stack(p[:degree + 1])
        got = _basis_stack(x, degree, kind)
        assert got.shape == (degree + 1, 6, 5) and got.dtype == dtype
        np.testing.assert_array_equal(got, expect)


def test_input_validation():
    with pytest.raises(ValueError):
        eval_basis(0.5, -1, F)
    with pytest.raises(ValueError):
        eval_basis(np.nan, 3, F)
    with pytest.raises(ValueError):
        roots(0)
    with pytest.raises(ValueError):
        extrema(0)
    with pytest.raises(ValueError):
        gauss_chebyshev(0, F)


def test_a_kind_that_is_not_a_polykind_is_rejected():
    # each function tests for one member by identity, so "second" would
    # evaluate first-kind values and differentiate neither kind's
    for kind in ("second", "first", "bogus", None, 1):
        for call in (lambda: eval_basis(0.5, 3, kind),
                     lambda: eval_basis_derivative(0.5, 3, kind),
                     lambda: gauss_chebyshev(4, kind),
                     lambda: orthogonality_integral(1, 2, kind)):
            with pytest.raises(ValueError, match="kind"):
                call()
