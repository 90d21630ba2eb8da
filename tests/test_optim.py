import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from chebykan.ndcore import ShapeError
from chebykan.optim import Adam, mse_loss, softmax_cross_entropy


def test_mse_zero_at_match():
    x = np.arange(6.0).reshape(2, 3)
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(x))


def test_mse_value_and_grad():
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 0.0]])
    loss, grad = mse_loss(pred, target)
    np.testing.assert_allclose(loss, (1.0 + 4.0) / 2.0)
    np.testing.assert_allclose(grad, [[1.0, 2.0]])  # 2*(p-t)/N


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 7, 9])
    loss, grad = softmax_cross_entropy(logits, labels)
    np.testing.assert_allclose(loss, np.log(10.0), atol=1e-12)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.full((2, 5), -50.0)
    logits[0, 2] = 50.0
    logits[1, 4] = 50.0
    loss, _ = softmax_cross_entropy(logits, np.array([2, 4]))
    assert loss < 1e-12


def test_cross_entropy_is_stable_at_extremes():
    logits = np.array([[1e4, -1e4, 0.0]])
    loss, grad = softmax_cross_entropy(logits, np.array([1]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_cross_entropy_grad_matches_finite_difference():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 2, (3, 6))
    labels = np.array([1, 0, 5])
    _, grad = softmax_cross_entropy(logits, labels)
    h = 1e-6
    for i in range(logits.size):
        lp = logits.copy(); lp.flat[i] += h
        lm = logits.copy(); lm.flat[i] -= h
        fd = (softmax_cross_entropy(lp, labels)[0]
              - softmax_cross_entropy(lm, labels)[0]) / (2 * h)
        np.testing.assert_allclose(grad.flat[i], fd, rtol=1e-5, atol=1e-9)


def test_cross_entropy_label_validation():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros(3), np.array([0]))


def test_adam_first_step_is_signed_lr():
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -4.0, 1e-3])
    opt = Adam(lr=0.1)
    opt.step(p, g)
    # bias correction makes the first update lr * g / (|g| + eps) ~ lr * sign(g)
    np.testing.assert_allclose(p, [1.0 - 0.1, -2.0 + 0.1, 3.0 - 0.1], atol=1e-4)


def test_adam_moments_track_constant_gradient():
    p = np.zeros(1)
    g = np.ones(1)
    opt = Adam(lr=0.01)
    for _ in range(50):
        opt.step(p, g)
    # constant gradient: every bias-corrected step is exactly lr*g/(|g|+eps)
    np.testing.assert_allclose(p, -0.01 * 50, rtol=1e-6)


def test_optimizer_steps_allocate_no_parameter_sized_array():
    p = np.zeros(1 << 16)
    g = np.ones_like(p)
    opt = Adam(lr=0.1)
    opt.step(p, g)  # the first step makes the state arrays
    tracemalloc.start()
    try:
        opt.step(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes // 4, peak


def test_optimizer_validation():
    for lr in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            Adam(lr=lr)
    opt = Adam(lr=0.1)
    with pytest.raises(ShapeError):
        opt.step(np.zeros(2), np.zeros(3))


def test_an_optimizer_takes_only_its_learning_rate():
    # every run steps with Kingma & Ba's Adam, so the other settings are
    # class constants, not constructor arguments
    for setting in ("eps", "beta1", "beta2"):
        with pytest.raises(TypeError):
            Adam(lr=0.1, **{setting: 0.5})


def test_optimizers_update_in_place():
    p = np.zeros(3)
    ref = p
    Adam(lr=0.1).step(p, np.ones(3))
    assert p is ref and not np.all(p == 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_step_is_the_textbook_update_up_to_rounding(dtype):
    # the step folds both bias corrections into two scalars and keeps the
    # moments over (1 - beta), so it rounds differently from the textbook
    # arithmetic; each step from the same p must land within one spacing of
    # p plus 4*eps*lr of the textbook step (1.71*eps*lr measured over 50
    # seeds), and v*(1 - beta2) within 32 eps of the textbook v (11.2 measured)
    lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
    ulp = np.finfo(dtype).eps
    rng = np.random.default_rng(11)
    p = rng.normal(0.0, 1.0, 257).astype(dtype)
    m, v = np.zeros_like(p), np.zeros_like(p)
    opt = Adam(lr=lr)
    assert (opt.beta1, opt.beta2, opt.eps) == (b1, b2, eps)
    for t in range(1, 51):
        # gradients over 8 orders of magnitude, some exactly zero
        g = (rng.normal(0.0, 1.0, p.size) * 10.0 ** rng.uniform(-6, 2, p.size)).astype(dtype)
        g[rng.integers(0, p.size, 5)] = 0.0
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        want = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        opt.step(p, g)
        assert p.dtype == dtype
        assert np.all(np.abs(p - want) <= np.abs(np.spacing(p)) + 4 * ulp * lr), t
        assert np.all(np.abs(opt.v * (1.0 - b2) - v) <= 32 * ulp * v), t


def test_optimizers_reject_a_new_parameter_shape_before_changing_state():
    opt = Adam(lr=0.1)
    opt.step(np.zeros(4), np.ones(4))
    before = copy.deepcopy(vars(opt))
    p = np.zeros(1)
    with pytest.raises(ShapeError, match=r"params \(1,\).*shape \(4,\)"):
        opt.step(p, np.ones(1))
    assert p[0] == 0.0
    assert vars(opt).keys() == before.keys()
    for key, value in before.items():
        np.testing.assert_array_equal(vars(opt)[key], value, err_msg=key)


def test_losses_reject_an_empty_batch_before_numpy_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError, match="empty batch"):
            mse_loss(np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ShapeError, match="empty batch"):
            softmax_cross_entropy(np.zeros((0, 10)), np.zeros(0, int))
