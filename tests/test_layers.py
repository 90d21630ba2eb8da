import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import chebykan
from chebykan import layers
from chebykan.chebyshev import PolyKind, _basis_stack, eval_basis
from chebykan.layers import EVAL_BASIS_BYTES, ChebyKanLayer, InitMethod, LayerNorm, init_coeffs
from chebykan.ndcore import Rng, ShapeError
from chebykan.network import Sequential

F, S = PolyKind.FIRST, PolyKind.SECOND


def _filled_layer(in_dim, out_dim, degree, kind=F, seed=0, dtype=np.float64):
    layer = ChebyKanLayer(in_dim, out_dim, degree, kind, dtype)
    init_coeffs(layer, InitMethod.LECUN, Rng(seed, "layer"))
    return layer


def test_forward_shape_and_einsum_equivalence():
    # degree 0 has no basis slab, degree 1 no recurrence step, degree 2 one
    for kind, degree, dtype in itertools.product((F, S), (0, 1, 2, 5), (np.float64, np.float32)):
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
        rows = EVAL_BASIS_BYTES // (784 * max(1, degree) * np.dtype(dtype).itemsize)
        tol = 1e-12 if f64 else 1e-5  # a block's own BLAS call may sum in another order
        for batch in (2 * rows + 37, 0):
            x = Rng(2, "x").uniform(-2.0, 2.0, (batch, 784))
            layer.training = True
            want = layer.forward(x)
            layer.training = False
            got = layer.forward(x)
            assert got.shape == want.shape == (batch, 4) and got.dtype == dtype, case
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol, err_msg=case)
        # a training forward is the eval loop's one block over the whole
        # batch, so up to one eval block the two forwards are bit-identical
        for batch in (rows, 3, 1, 0):
            x = Rng(3, "x").uniform(-2.0, 2.0, (batch, 784))
            layer.training = True
            want = layer.forward(x)
            t = layer._cache  # P_1..P_degree: P_0 = 1 enters as a bias
            assert t.shape == (degree, batch, 784) and t.dtype == dtype, case
            basis = _basis_stack(np.tanh(x.astype(dtype)), degree, kind)
            for k in range(degree):  # each P_{k+1} is one contiguous slab
                assert t[k].flags.c_contiguous, f"{case}, batch {batch}, slab {k}"
                np.testing.assert_array_equal(t[k], basis[k + 1], err_msg=case)
            layer.training = False
            got = layer.forward(x)
            assert layer._cache is None and got.dtype == want.dtype == dtype, case
            np.testing.assert_array_equal(got, want, err_msg=f"{case}, batch {batch}")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_first_kind_degree_one_layer_is_a_tanh_linear_layer(dtype):
    # T_1(t) = t, so the layer is a linear layer on tanh of its input with
    # w[0].sum(0) as its bias: the tanh-MLP baseline needs no layer of its own
    layer = _filled_layer(784, 32, 1, F, dtype=dtype)
    x = Rng(4, "x").uniform(-2.0, 2.0, (64, 784)).astype(dtype)
    want = np.tanh(x) @ layer.w[1] + layer.w[0].sum(0)
    for training in (True, False):
        layer.training = training
        y = layer.forward(x)
        assert y.dtype == dtype
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=0, err_msg=f"training={training}")


@pytest.fixture
def eight_cpus(monkeypatch):
    """An eval forward of several blocks runs on up to eight threads: the
    process seems to own eight cores, and one BLAS thread leaves all free."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def _eval_case(kind, dtype):
    """A degree-3 784x4 layer in eval mode, a batch of eight full row blocks
    and a ragged tail, and the block size."""
    layer = _filled_layer(784, 4, 3, kind, dtype=dtype)
    layer.training = False
    rows = EVAL_BASIS_BYTES // (784 * 3 * np.dtype(dtype).itemsize)
    return layer, Rng(7, "x").uniform(-2.0, 2.0, (8 * rows + 37, 784)), rows


# a subprocess that sees one core, so the eval forward runs on its own thread
_ONE_CPU_FORWARD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_layers import F, S, _eval_case
for kind, dtype in ((F, np.float64), (F, np.float32), (S, np.float64), (S, np.float32)):
    layer, x, _ = _eval_case(kind, dtype)
    sys.stdout.buffer.write(layer.forward(x).tobytes())
"""


def test_eval_forward_is_bit_identical_whatever_the_worker_count(eight_cpus):
    # the worker count decides only which thread fills which block's rows;
    # the blocks and each block's ops are the serial loop's, so every bit is
    got = b""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the shared block iterator over often
    try:
        for kind, dtype in itertools.product((F, S), (np.float64, np.float32)):
            layer, x, rows = _eval_case(kind, dtype)
            y = layer.forward(x)
            want = np.concatenate([layer.forward(x[s:s + rows]) for s in range(0, len(x), rows)])
            np.testing.assert_array_equal(y, want, err_msg=f"{kind}, {np.dtype(dtype)}")
            got += y.tobytes()
    finally:
        sys.setswitchinterval(old)
    assert any(t.name.startswith("chebykan") for t in threading.enumerate())
    if sys.platform != "linux":
        return
    env = dict(os.environ, PYTHONPATH=str(Path(chebykan.__file__).parents[1]))
    one_cpu = subprocess.run([sys.executable, "-c", _ONE_CPU_FORWARD, str(Path(__file__).parent)],
                             env=env, capture_output=True, timeout=120)
    assert one_cpu.returncode == 0, one_cpu.stderr.decode()
    assert one_cpu.stdout == got


@pytest.mark.parametrize("cpus, openblas, omp, blocks, want", [
    (8, "1", None, 1, 1),       # one block runs on the calling thread
    (2, None, None, 9, 1),      # unset: OpenBLAS starts a thread per core
    (8, None, None, 9, 1),
    (2, "1", None, 9, 2),       # one BLAS thread frees every core
    (8, "1", None, 5, 5),       # never more workers than blocks
    (8, "2", None, 9, 4),
    (8, "16", None, 9, 1),      # more BLAS threads than cores still leaves one
    (8, None, "2", 9, 4),       # OMP_NUM_THREADS counts when OPENBLAS_NUM_THREADS is unset
    (8, "4", "1", 9, 2),        # ... and not when it is set
    (8, " 2 ", None, 9, 4),
    *[(8, bad, "2", 9, 4) for bad in ("0", "-1", "x", "")],  # or invalid
    *[(8, None, bad, 9, 1) for bad in ("0", "-1", "x", "")],
])
def test_eval_worker_count_leaves_blas_its_cores(monkeypatch, cpus, openblas, omp, blocks, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert layers._workers(blocks) == want


def test_eval_pool_keeps_the_callers_error_state(eight_cpus):
    layer, x, _ = _eval_case(F, np.float64)
    layer.w[1:] = 1e306  # each degree's sum over 784 inputs overflows
    x[:] = 3.0  # tanh(3) > 0.99, so every basis value is near 1
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(layer.forward(x)).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        layer.forward(x)


def test_eval_pool_raises_a_workers_exception_in_the_caller(eight_cpus, monkeypatch):
    layer, x, _ = _eval_case(F, np.float64)
    fill, pool_thread_ran = layers._fill_basis, threading.Event()

    def fill_on_caller_only(t, kind):
        if threading.current_thread() is threading.main_thread():
            pool_thread_ran.wait(10)  # leave blocks for the pool
            return fill(t, kind)
        pool_thread_ran.set()
        raise ValueError("a pool thread failed")

    monkeypatch.setattr(layers, "_fill_basis", fill_on_caller_only)
    with pytest.raises(ValueError, match="a pool thread failed"):
        layer.forward(x)
    assert pool_thread_ran.is_set()


def test_eval_forward_does_not_wait_for_a_pool_thread_that_never_started(eight_cpus):
    layer, x, _ = _eval_case(S, np.float64)
    want = layer.forward(x)  # the pool exists now
    pool = layers._pool[os.getpid()]
    release = threading.Event()
    # every pool thread is busy until release, so the forward's pool calls
    # stay queued; a forward that waited for them would return only after it
    blockers = [pool.submit(release.wait, 60) for _ in range(pool._max_workers)]
    timer = threading.Timer(5, release.set)
    timer.start()
    try:
        np.testing.assert_array_equal(layer.forward(x), want)
        assert not release.is_set()
    finally:
        timer.cancel()
        release.set()
        for b in blockers:
            b.result()


def _forward_bytes(layer, x, conn):
    conn.send_bytes(layer.forward(x).tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_makes_its_own_eval_pool(eight_cpus):
    layer, x, _ = _eval_case(S, np.float32)
    want = layer.forward(x).tobytes()  # the parent's pool now has threads
    assert any(t.name.startswith("chebykan") for t in threading.enumerate())
    recv, send = multiprocessing.Pipe(duplex=False)
    with warnings.catch_warnings():
        # Python 3.12 warns on any fork of a threaded process; the child
        # must not wait on the parent's pool threads, which it does not have
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        child = multiprocessing.get_context("fork").Process(
            target=_forward_bytes, args=(layer, x, send))
        child.start()
    try:
        send.close()
        assert recv.poll(60), "the forked child's eval forward did not finish"
        assert recv.recv_bytes() == want
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        recv.close()


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
    # P_0 = 1, so a degree-0 layer is its bias w[0].sum(0) on every row
    for dtype in (np.float64, np.float32):
        layer = _filled_layer(3, 2, 0, dtype=dtype)
        x = Rng(3, "x").uniform(-1.0, 1.0, (5, 3))
        y = layer.forward(x)
        np.testing.assert_array_equal(y, np.tile(layer.w[0].sum(axis=0), (5, 1)))
        dLdx = layer.backward(np.ones((5, 2)))
        assert dLdx.shape == (5, 3) and dLdx.dtype == y.dtype == dtype
        assert np.all(dLdx == 0.0)


def test_constant_term_grad_is_the_cotangent_sum():
    # each P_0 term's gradient is sum_b dLdy[b, o] * 1, whatever the input
    for kind, degree, input_grad in itertools.product((F, S), (0, 3), (True, False)):
        layer = _filled_layer(3, 2, degree, kind)
        layer.forward(Rng(5, "x").uniform(-2.0, 2.0, (6, 3)))
        dLdy = Rng(6, "g").normal(0.0, 1.0, (6, 2))
        layer.backward(dLdy, input_grad=input_grad)
        for i in range(3):
            np.testing.assert_array_equal(layer.grad_w[0, i], dLdy.sum(axis=0))


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
    # a checkpoint stores no eps, so a layer built with its own would reload
    # with the default and compute other outputs
    with pytest.raises(TypeError):
        LayerNorm(3, eps=0.5)
    # an integer layer would truncate its input 0.7 to 0; ndcore.check_dtype's
    # own test covers the other dtypes
    for dtype in (np.int64, np.float16, "i8"):
        with pytest.raises(ValueError, match="unsupported dtype"):
            ChebyKanLayer(1, 1, 1, F, dtype=dtype)
        with pytest.raises(ValueError, match="unsupported dtype"):
            LayerNorm(2, dtype=dtype)
    for dtype in (np.float32, np.float64, "float32", "f8"):
        assert ChebyKanLayer(1, 1, 1, F, dtype=dtype).w.dtype == dtype
        layer = LayerNorm(2, dtype=dtype)
        assert layer.gamma.dtype == layer.beta.dtype == dtype
