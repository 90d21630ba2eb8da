import re

import numpy as np
import pytest

from chebykan import experiments
from chebykan.chebyshev import PolyKind
from chebykan.data import Dataset, NormScheme, load_mnist_idx, sample_function
from chebykan.experiments import (ABLATION_CSV_HEADER, RUN_CSV_HEADER,
                                  AblationRow, DivergenceError, EpochRow, RunRecord,
                                  TrainConfig, ablation_csv_lines, evaluate,
                                  grad_check, run_ablation, train)
from chebykan.layers import ChebyKanLayer, InitMethod
from chebykan.ndcore import BLOCK_BYTES, Rng, ShapeError
from chebykan.network import ArchSpec, build, mnist_arch, param_count
from chebykan.optim import mse_loss, softmax_cross_entropy
from chebykan.data import TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS


def _toy_regression(n=256, seed=0):
    return sample_function("sin_plus_sq", -2.0, 2.0, n, Rng(seed, "toy"))


def _small_cfg(**overrides):
    base = dict(epochs=3, batch_size=32, lr=1e-2, seed=11, degree=3,
                widths=[1, 8, 1])
    base.update(overrides)
    return TrainConfig(**base)


def test_eval_forward_of_the_mnist_model_matches_the_einsum_oracle():
    # degree 5, second kind: the first layer's eval forward runs two full row
    # blocks and a ragged tail, the oracle one einsum over the whole batch;
    # the error is relative to the largest logit, as in the benchmark's check
    model = build(mnist_arch(5, PolyKind.SECOND), InitMethod.XAVIER, Rng(0, "init")).eval()
    rows = BLOCK_BYTES // (5 * 784 * 8)
    x = Rng(1, "x").uniform(-2.0, 2.0, (2 * rows + 37, 784))
    got = model.forward(x)
    want = experiments._einsum_forward(model, x, model.flat_params)
    assert got.shape == want.shape == (2 * rows + 37, 10)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_train_regression_improves_and_logs_rows():
    cfg = _small_cfg()
    record = train(cfg.build_model(), _toy_regression(), _toy_regression(seed=1), cfg)
    assert [r.epoch for r in record.rows] == [1, 2, 3]
    assert record.rows[-1].test_loss < record.rows[0].test_loss
    assert record.final_metric == record.rows[-1].metric


def test_train_is_deterministic():
    runs = []
    for mode in (True, False):  # a model left in eval mode trains the same
        cfg = _small_cfg()
        model = cfg.build_model().train(mode)
        record = train(model, _toy_regression(), _toy_regression(seed=1), cfg)
        assert model.training
        runs.append([(r.epoch, r.train_loss, r.test_loss, r.metric)
                     for r in record.rows])
    assert runs[0] == runs[1]


def test_epochs_zero_gives_single_evaluation_row():
    cfg = _small_cfg(epochs=0)
    record = train(cfg.build_model(), _toy_regression(), _toy_regression(seed=1), cfg)
    assert len(record.rows) == 1
    assert record.rows[0].epoch == 0
    assert np.isfinite(record.rows[0].test_loss)


def test_max_steps_caps_training():
    # 256 samples / batch 32 = 8 steps per epoch; 12 steps end inside epoch 2,
    # and a budget spent on an epoch's last batch starts no empty epoch
    for max_steps, epochs in ((12, [1, 2]), (8, [1]), (16, [1, 2])):
        cfg = _small_cfg(epochs=10, max_steps=max_steps)
        record = train(cfg.build_model(), _toy_regression(), _toy_regression(seed=1), cfg)
        assert [r.epoch for r in record.rows] == epochs, max_steps


def test_max_steps_zero_takes_no_step():
    cfg = _small_cfg(epochs=10, max_steps=0)
    model = cfg.build_model()
    before = model.flat_params.copy()
    record = train(model, _toy_regression(), _toy_regression(seed=1), cfg)
    np.testing.assert_array_equal(model.flat_params, before)
    zero = _small_cfg(epochs=0)
    expect = train(zero.build_model(), _toy_regression(), _toy_regression(seed=1), zero)
    assert [(r.epoch, r.train_loss, r.test_loss, r.metric) for r in record.rows] == \
        [(r.epoch, r.train_loss, r.test_loss, r.metric) for r in expect.rows]


def test_cut_short_epoch_averages_over_the_rows_it_trained_on():
    # every row is the same and the step too small to move the loss, so any
    # batch's loss is a full epoch's; 256 rows / batch 64 = 4 steps per epoch,
    # and 6 steps end epoch 2 after half its rows
    ds = Dataset(features=np.full((256, 1), 0.3), targets=np.full((256, 1), 0.8))
    full, cut = (train(_small_cfg().build_model(), ds, ds,
                       _small_cfg(epochs=2, batch_size=64, lr=1e-12, max_steps=steps))
                 for steps in (None, 6))
    assert [r.epoch for r in cut.rows] == [1, 2]
    assert cut.rows[0] == full.rows[0]
    np.testing.assert_allclose(cut.rows[1].train_loss, full.rows[1].train_loss, rtol=1e-9)


def test_a_split_is_scored_with_one_forward():
    # the layers bound an eval forward's working set, so evaluate and each
    # epoch's score run one forward per split, however many rows it has
    cfg = _small_cfg(epochs=2, batch_size=1000)
    ds = _toy_regression(n=3000)
    model = cfg.build_model()
    rows, forward = [], model.forward

    def spy(x):
        if not model.training:
            rows.append(len(x))
        return forward(x)

    model.forward = spy
    evaluate(model, ds, "regress")
    assert rows == [3000]
    rows.clear()
    train(model, ds, ds, cfg)
    assert rows == [3000, 3000]  # one per epoch


def test_answerless_or_empty_dataset_raises_value_error():
    cfg = _small_cfg()
    ds = _toy_regression()
    answerless = Dataset(features=ds.features)
    empty = Dataset(features=ds.features[:0], targets=ds.targets[:0])
    for split, pair in (("train", (answerless, ds)), ("test", (ds, answerless))):
        with pytest.raises(ValueError, match=f"the {split} dataset has neither labels nor targets"):
            train(cfg.build_model(), *pair, cfg)
    model = cfg.build_model()
    for task in ("classify", "regress"):
        with pytest.raises(ValueError, match="the dataset has neither labels nor targets"):
            evaluate(model, answerless, task)
        with pytest.raises(ValueError, match="the dataset is empty"):
            evaluate(model, empty, task)
    labelled = Dataset(features=ds.features[:0], labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="the dataset is empty"):
        evaluate(model, labelled, "classify")


def test_empty_split_raises_value_error_naming_it():
    cfg = _small_cfg()
    ds = _toy_regression()
    empty = Dataset(features=ds.features[:0], targets=ds.targets[:0])
    with pytest.raises(ValueError, match="train"):
        train(cfg.build_model(), empty, ds, cfg)
    with pytest.raises(ValueError, match="test"):
        train(cfg.build_model(), ds, empty, cfg)


def test_non_finite_split_raises_value_error_naming_it():
    cfg = _small_cfg()
    ds = _toy_regression()
    for name, bad in (("features", np.nan), ("features", np.inf), ("targets", -np.inf)):
        broken = Dataset(features=ds.features.copy(), targets=ds.targets.copy())
        getattr(broken, name)[3, 0] = bad
        with pytest.raises(ValueError, match=f"train dataset has non-finite {name}"):
            train(cfg.build_model(), broken, ds, cfg)
        with pytest.raises(ValueError, match=f"test dataset has non-finite {name}"):
            train(cfg.build_model(), ds, broken, cfg)


def test_features_that_are_not_a_matrix_raise_naming_the_split():
    cfg = _small_cfg(widths=[1, 4, 1])
    ds = _toy_regression(64)
    for features in (ds.features[:, 0], ds.features[:, :, None]):
        bad = Dataset(features=features, targets=ds.targets)
        message = f"has features of shape {re.escape(str(features.shape))}, not a matrix"
        for split, pair in (("train", (bad, ds)), ("test", (ds, bad))):
            model = cfg.build_model()
            before = model.flat_params.copy()
            with pytest.raises(ValueError, match=f"the {split} dataset {message}"):
                train(model, *pair, cfg)
            np.testing.assert_array_equal(model.flat_params, before)
        with pytest.raises(ValueError, match=f"the dataset {message}"):
            evaluate(cfg.build_model(), bad, "regress")


def test_answers_that_do_not_fit_the_features_raise_before_any_step():
    cfg = _small_cfg()
    ds = _toy_regression()
    n = len(ds)
    labels = np.arange(n) % 3
    digits = Dataset(features=ds.features, labels=labels)
    for good, bad, message in (
            (ds, Dataset(features=ds.features, targets=ds.targets[:, 0]),
             rf"targets of shape \({n},\), not one row per feature row"),
            (ds, Dataset(features=ds.features, targets=ds.targets[:7]),
             r"targets of shape \(7, 1\), not one row"),
            (ds, Dataset(features=ds.features, targets=np.vstack([ds.targets] * 2)),
             rf"targets of shape \({2 * n}, 1\), not one row"),
            (digits, Dataset(features=ds.features, labels=labels.astype(float)),
             "labels of dtype float64, not integers"),
            (digits, Dataset(features=ds.features, labels=labels[:, None]),
             rf"labels of shape \({n}, 1\), not one per feature row"),
            (digits, Dataset(features=ds.features, labels=labels[:7]),
             r"labels of shape \(7,\), not one per feature row"),
            (digits, Dataset(features=ds.features, labels=np.tile(labels, 2)),
             rf"labels of shape \({2 * n},\), not one per feature row"),
            (digits, Dataset(features=ds.features, labels=labels - 1),
             "a negative label, -1"),
    ):
        width = 1 if good is ds else 3
        for split, pair in (("train", (bad, good)), ("test", (good, bad))):
            model = _small_cfg(widths=[1, 8, width]).build_model()
            before = model.flat_params.copy()
            with pytest.raises(ValueError, match=f"the {split} dataset has {message}"):
                train(model, *pair, cfg)
            np.testing.assert_array_equal(model.flat_params, before)


def test_evaluate_rejects_answers_that_do_not_fit_the_features():
    model = _small_cfg(widths=[1, 8, 3]).build_model()
    ds = _toy_regression(32)
    labels = np.arange(32) % 3
    for bad, task, message in (
            (Dataset(features=ds.features, labels=labels.astype(np.float32)), "classify",
             "labels of dtype float32, not integers"),
            (Dataset(features=ds.features, labels=labels.astype(bool)), "classify",
             "labels of dtype bool, not integers"),
            (Dataset(features=ds.features, labels=labels[:7]), "classify",
             r"labels of shape \(7,\)"),
            (Dataset(features=ds.features, targets=ds.targets[:7]), "regress",
             r"targets of shape \(7, 1\)"),
    ):
        with pytest.raises(ValueError, match=f"the dataset has {message}"):
            evaluate(model, bad, task)


def test_widths_that_do_not_fit_the_data_raise_before_any_step():
    ds = _toy_regression()
    digits = Dataset(features=ds.features, labels=np.arange(len(ds)) % 10)
    for widths, train_ds, message in (
            ([2, 8, 1], ds, "feature width 1, got 2"),
            ([1, 8, 2], ds, "target width 1, got 2"),
            ([1, 8, 9], digits, "more than 9 outputs"),
    ):
        # the model's widths are checked, not the cfg's, which here fit
        model = _small_cfg(widths=widths).build_model()
        before = model.flat_params.copy()
        with pytest.raises(ValueError, match=f"widths must .*{message}"):
            train(model, train_ds, train_ds, _small_cfg())
        np.testing.assert_array_equal(model.flat_params, before)
    # a model that fits trains under the default cfg, whose widths are MNIST's,
    # and under cfg architecture fields no model could have, since train
    # reads only the cfg's schedule
    record = train(_small_cfg().build_model(), ds, ds, TrainConfig(epochs=1))
    assert [r.epoch for r in record.rows] == [1]
    model = _small_cfg(widths=[1, 4, 1]).build_model()
    for arch in (dict(degree=-1), dict(widths=[5, 0])):
        record = train(model, ds, ds, TrainConfig(epochs=1, batch_size=32, **arch))
        assert [r.epoch for r in record.rows] == [1], arch


def test_divergence_raises_with_location():
    cfg = _small_cfg(lr=1e200, epochs=5)
    with pytest.raises(DivergenceError, match="at epoch 1, batch 1$"):
        with np.errstate(all="ignore"):
            train(cfg.build_model(), _toy_regression(), _toy_regression(seed=1), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(epochs=-1).validate()
    with pytest.raises(ValueError):
        _small_cfg(batch_size=0).validate()
    for name in ("lbfgs", "sgd"):  # Adam is the one optimizer
        with pytest.raises(ValueError, match=f"optimizer must be 'adam', got '{name}'"):
            _small_cfg(optimizer=name).validate()
    # the optimizer's name is checked before the optimizer checks lr
    with pytest.raises(ValueError, match="optimizer must be"):
        _small_cfg(optimizer="lbfgs", lr=0.0).validate()
    with pytest.raises(ValueError):
        _small_cfg(max_steps=-1).validate()
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            _small_cfg(lr=lr).validate()
    with pytest.raises(TypeError):  # Adam's other settings are constants
        _small_cfg(momentum=0.5)
    # the architecture fields are checked by the spec a model is built from
    with pytest.raises(ValueError, match="degree"):
        _small_cfg(degree=-1).arch().validate()
    with pytest.raises(ValueError, match="widths"):
        _small_cfg(widths=[1, 0, 1]).arch().validate()


def test_evaluate_constant_classifier_on_balanced_set():
    class Constant:
        training = False

        def train(self, mode=True):
            self.training = mode

        def eval(self):
            self.train(False)

        def forward(self, x):
            out = np.zeros((len(x), 10))
            out[:, 4] = 1.0
            return out

    feats = np.zeros((100, 3))
    labels = np.repeat(np.arange(10), 10)
    acc = evaluate(Constant(), Dataset(features=feats, labels=labels), "classify")
    assert acc == 0.1


def test_evaluate_regression_zero_on_exact_targets():
    cfg = _small_cfg(epochs=0)
    model = cfg.build_model()
    ds = _toy_regression(32)
    exact = Dataset(features=ds.features, targets=model.forward(ds.features))
    assert evaluate(model, exact, "regress") == 0.0
    with pytest.raises(ValueError):
        evaluate(model, exact, "cluster")
    with pytest.raises(ValueError, match="task"):
        evaluate(model, exact, "classify")
    labelled = Dataset(features=ds.features, labels=np.zeros(len(ds), dtype=np.int64))
    with pytest.raises(ValueError, match="task"):
        evaluate(model, labelled, "regress")


def test_evaluate_restores_the_mode_when_a_forward_raises():
    model = _small_cfg(widths=[3, 4, 1]).build_model()  # built in training mode
    wide = Dataset(features=np.zeros((8, 5)), targets=np.zeros((8, 1)))
    with pytest.raises(ShapeError):
        evaluate(model, wide, "regress")
    assert model.training and all(layer.training for layer in model.layers)
    model.forward(np.zeros((2, 3)))
    model.backward(np.ones((2, 1)))  # needs the training cache


def test_grad_check_small_run_passes():
    assert grad_check(trials=15) <= 1e-5


def test_grad_check_flags_corrupted_backward(monkeypatch):
    backward = ChebyKanLayer.backward

    def flipped(self, dLdy, *args):
        dx = backward(self, dLdy, *args)
        np.negative(self.grad_coeffs, out=self.grad_coeffs)
        return dx

    monkeypatch.setattr(ChebyKanLayer, "backward", flipped)
    assert grad_check(trials=5) > 1e-1


def test_grad_check_rejects_empty_audits_and_keeps_nan(monkeypatch):
    # a subnormal h keeps too few bits in i*h to measure anything
    for kwargs in (dict(h=0.0), dict(h=-1e-6), dict(h=float("nan")), dict(h=1e-320),
                   dict(h=float("inf")), dict(trials=0), dict(trials=-1)):
        with pytest.raises(ValueError):
            grad_check(**kwargs)
    # an oracle that yields NaN must not read as a pass
    monkeypatch.setattr(experiments, "_einsum_forward",
                        lambda model, x, params: np.full((len(x), 1), np.nan))
    assert np.isnan(grad_check(trials=2))


def _complex_cross_entropy(labels):
    """softmax cross-entropy, complex-analytic: the log-sum-exp shift is the
    real part's row max, a constant of the complex step"""
    def loss(out):
        z = out - out.real.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logp[np.arange(len(labels)), labels].mean()
    return loss


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("widths,degree,kind", [
    ([784, 32, 16, 10], 3, PolyKind.FIRST),
    ([784, 32, 16, 10], 5, PolyKind.SECOND),
    ([2, 64, 64, 1], 3, PolyKind.FIRST),
    ([1, 8, 1], 4, PolyKind.FIRST),
], ids=["mnist_train", "mnist_eval", "fractal", "function_fit"])
def test_backward_matches_directional_complex_steps_at_workload_shapes(
        widths, degree, kind, input_grad, dtype):
    # grad_check audits widths 1-4 along unit directions; one complex forward
    # per random direction checks every gradient entry at the workload widths.
    # The oracle runs in complex128 on the model's parameters and inputs, so a
    # float32 model's gradients read its rounding: 2.6e-5 at worst, against 1e-3
    f64 = dtype == np.float64
    bound = 1e-9 if f64 else 1e-3
    r = Rng(0, "directional")
    spec = ArchSpec(widths=widths, degree=degree, kind=kind, layernorm_between=True)
    model = build(spec, InitMethod.XAVIER, r.substream("init"), dtype)
    x = r.normal(0.0, 1.0, (64, widths[0])).astype(dtype)
    y = model.forward(x)
    if widths[-1] == 10:
        labels = r.permutation(64) % 10
        _, dLdy = softmax_cross_entropy(y, labels)
        loss = _complex_cross_entropy(labels)
    else:
        target = r.normal(0.0, 1.0, y.shape)
        _, dLdy = mse_loss(y, target)
        loss = lambda out: np.mean((out - target) ** 2)
    dLdx = model.backward(dLdy, input_grad)
    assert (dLdx is None) is not input_grad

    def directions(n):
        rng = r.substream("directions")
        for _ in range(n):
            v = rng.normal(0.0, 1.0, model.flat_params.shape)
            u = rng.normal(0.0, 1.0, x.shape) if input_grad else np.zeros(x.shape)
            yield v, u

    assert experiments._directional_check(model, x, loss, dLdx, directions(3), 1e-30) <= bound
    # teeth: in float64 one coefficient-gradient entry off by 1e-4 of itself
    # fails it; float32's bound hides that (x1.1 reads 1.7e-4 at the MNIST
    # shape), so there the whole first-layer gradient is off by 1%
    grad_w = model.layers[0].grad_w
    if f64:
        grad_w.flat[np.argmax(np.abs(grad_w))] *= 1.0 + 1e-4
    else:
        grad_w *= 1.01
    assert experiments._directional_check(model, x, loss, dLdx, directions(1), 1e-30) > bound


@pytest.mark.parametrize("seed", [10, 18, 27, 43])
def test_grad_check_resolves_tiny_gradient_entries(seed):
    # these seeds draw gradient entries near 1e-8, which central differences
    # resolved only to 1.4e-05 to 3.1e-05
    assert grad_check(trials=100, seed=seed) <= 1e-5


def test_run_csv_format():
    cfg = _small_cfg(epochs=2)
    record = train(cfg.build_model(), _toy_regression(), _toy_regression(seed=1), cfg)
    lines = record.csv_lines()
    assert lines[0] == RUN_CSV_HEADER
    assert lines[-1].startswith("# wall_time_s")
    first = lines[1].split(",")
    assert first[0] == "1"
    assert all(float(v) == float(v) for v in first[1:])


def test_ablation_on_synthetic_digits(synth_mnist_dir):
    train_raw = load_mnist_idx(synth_mnist_dir / TRAIN_IMAGES,
                               synth_mnist_dir / TRAIN_LABELS)
    test_raw = load_mnist_idx(synth_mnist_dir / TEST_IMAGES,
                              synth_mnist_dir / TEST_LABELS)
    base = TrainConfig(epochs=2, batch_size=64, lr=1e-3, seed=5,
                       widths=[784, 16, 10])
    rows = run_ablation("degree", base, train_raw, test_raw)
    assert [r.axis_value for r in rows] == ["2", "3", "4", "5"]
    for row, degree in zip(rows, (2, 3, 4, 5)):
        spec = ArchSpec(widths=[784, 16, 10], degree=degree,
                        kind=PolyKind.FIRST, layernorm_between=True)
        assert row.param_count == param_count(spec)
        assert 0.0 <= row.test_accuracy <= 1.0


def test_ablation_kind_axis_reports_function_mse(synth_mnist_dir):
    train_raw = load_mnist_idx(synth_mnist_dir / TRAIN_IMAGES,
                               synth_mnist_dir / TRAIN_LABELS)
    test_raw = load_mnist_idx(synth_mnist_dir / TEST_IMAGES,
                              synth_mnist_dir / TEST_LABELS)
    base = TrainConfig(epochs=1, batch_size=64, lr=1e-3, seed=5,
                       widths=[784, 16, 10])
    rows = run_ablation("kind", base, train_raw, test_raw)
    assert [r.axis_value for r in rows] == ["first", "second"]
    # the loss column carries the 1-D approximation MSE, small for both kinds
    for row in rows:
        assert 0.0 < row.test_loss < 0.1


def test_ablation_kind_axis_hands_its_precision_to_the_function_fit(monkeypatch):
    record = RunRecord([EpochRow(1, 0.5, 0.5, 0.5)], 0.5, 0.0)
    seen = []

    def fit_function(cfg, stream, **recipe):
        seen.append(cfg.f32)
        return record, None, None

    monkeypatch.setattr(experiments, "run_classifier", lambda cfg, tr, te: record)
    monkeypatch.setattr(experiments, "fit_function", fit_function)
    for f32 in (True, False):
        run_ablation("kind", TrainConfig(f32=f32), None, None)
        assert seen == [f32, f32]
        seen.clear()


def test_ablation_rejects_unknown_axis():
    base = TrainConfig()
    with pytest.raises(ValueError):
        run_ablation("widths", base, None, None)


def test_ablation_csv_schema():
    lines = ablation_csv_lines([AblationRow("xavier", 0.5, 1.25, 10, 0.125)])
    assert lines == [ABLATION_CSV_HEADER, "xavier,0.5,1.25,10,0.125"]


def test_norm_schemes_all_train(synth_mnist_dir):
    from chebykan.data import apply_norm
    train_raw = load_mnist_idx(synth_mnist_dir / TRAIN_IMAGES,
                               synth_mnist_dir / TRAIN_LABELS)
    test_raw = load_mnist_idx(synth_mnist_dir / TEST_IMAGES,
                              synth_mnist_dir / TEST_LABELS)
    for scheme in NormScheme:
        cfg = TrainConfig(epochs=2, batch_size=64, lr=1e-3, seed=3,
                          widths=[784, 16, 10], norm=scheme)
        tr = apply_norm(train_raw, scheme)
        te = apply_norm(test_raw, scheme, stats=tr.norm)
        record = train(cfg.build_model(), tr, te, cfg)
        assert record.final_metric > 0.15  # far above the 0.1 chance floor
