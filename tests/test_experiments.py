import numpy as np
import pytest

from chebykan import experiments
from chebykan.chebyshev import PolyKind
from chebykan.data import Dataset, NormScheme, load_mnist_idx, sample_function
from chebykan.experiments import (ABLATION_CSV_HEADER, RUN_CSV_HEADER,
                                  AblationRow, DivergenceError, TrainConfig,
                                  ablation_csv_lines, evaluate, grad_check,
                                  run_ablation, train)
from chebykan.layers import ChebyKanLayer, InitMethod
from chebykan.ndcore import Rng
from chebykan.network import ArchSpec, build, param_count
from chebykan.data import TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS


def _toy_regression(n=256, seed=0):
    return sample_function("sin_plus_sq", -2.0, 2.0, n, Rng(seed, "toy"))


def _small_cfg(**overrides):
    base = dict(epochs=3, batch_size=32, lr=1e-2, seed=11, degree=3,
                widths=[1, 8, 1])
    base.update(overrides)
    return TrainConfig(**base)


def _build_for(cfg):
    return build(cfg.arch(), cfg.init, Rng(cfg.seed, "init"))


def test_train_regression_improves_and_logs_rows():
    cfg = _small_cfg()
    record = train(_build_for(cfg), _toy_regression(), _toy_regression(seed=1), cfg)
    assert [r.epoch for r in record.rows] == [1, 2, 3]
    assert record.rows[-1].test_loss < record.rows[0].test_loss
    assert record.final_metric == record.rows[-1].metric


def test_train_is_deterministic():
    runs = []
    for mode in (True, False):  # a model left in eval mode trains the same
        cfg = _small_cfg()
        model = _build_for(cfg).train(mode)
        record = train(model, _toy_regression(), _toy_regression(seed=1), cfg)
        assert model.training
        runs.append([(r.epoch, r.train_loss, r.test_loss, r.metric)
                     for r in record.rows])
    assert runs[0] == runs[1]


def test_epochs_zero_gives_single_evaluation_row():
    cfg = _small_cfg(epochs=0)
    record = train(_build_for(cfg), _toy_regression(), _toy_regression(seed=1), cfg)
    assert len(record.rows) == 1
    assert record.rows[0].epoch == 0
    assert np.isfinite(record.rows[0].test_loss)


def test_max_steps_caps_training():
    # 256 samples / batch 32 = 8 steps per epoch; 12 steps end inside epoch 2,
    # and a budget spent on an epoch's last batch starts no empty epoch
    for max_steps, epochs in ((12, [1, 2]), (8, [1]), (16, [1, 2])):
        cfg = _small_cfg(epochs=10, max_steps=max_steps)
        record = train(_build_for(cfg), _toy_regression(), _toy_regression(seed=1), cfg)
        assert [r.epoch for r in record.rows] == epochs, max_steps


def test_max_steps_zero_takes_no_step():
    cfg = _small_cfg(epochs=10, max_steps=0)
    model = _build_for(cfg)
    before = model.flat_params.copy()
    record = train(model, _toy_regression(), _toy_regression(seed=1), cfg)
    np.testing.assert_array_equal(model.flat_params, before)
    zero = _small_cfg(epochs=0)
    expect = train(_build_for(zero), _toy_regression(), _toy_regression(seed=1), zero)
    assert [(r.epoch, r.train_loss, r.test_loss, r.metric) for r in record.rows] == \
        [(r.epoch, r.train_loss, r.test_loss, r.metric) for r in expect.rows]


def test_empty_split_raises_value_error_naming_it():
    cfg = _small_cfg()
    ds = _toy_regression()
    empty = Dataset(features=ds.features[:0], targets=ds.targets[:0])
    with pytest.raises(ValueError, match="train"):
        train(_build_for(cfg), empty, ds, cfg)
    with pytest.raises(ValueError, match="test"):
        train(_build_for(cfg), ds, empty, cfg)


def test_non_finite_split_raises_value_error_naming_it():
    cfg = _small_cfg()
    ds = _toy_regression()
    for name, bad in (("features", np.nan), ("features", np.inf), ("targets", -np.inf)):
        broken = Dataset(features=ds.features.copy(), targets=ds.targets.copy())
        getattr(broken, name)[3, 0] = bad
        with pytest.raises(ValueError, match=f"train dataset has non-finite {name}"):
            train(_build_for(cfg), broken, ds, cfg)
        with pytest.raises(ValueError, match=f"test dataset has non-finite {name}"):
            train(_build_for(cfg), ds, broken, cfg)


def test_widths_that_do_not_fit_the_data_raise_before_any_step():
    ds = _toy_regression()
    digits = Dataset(features=ds.features, labels=np.arange(len(ds)) % 10)
    for widths, train_ds, message in (
            ([2, 8, 1], ds, "feature width 1, got 2"),
            ([1, 8, 2], ds, "target width 1, got 2"),
            ([1, 8, 9], digits, "more than 9 outputs"),
    ):
        # the model's widths are checked, not the cfg's, which here fit
        model = _build_for(_small_cfg(widths=widths))
        before = model.flat_params.copy()
        with pytest.raises(ValueError, match=f"widths must .*{message}"):
            train(model, train_ds, train_ds, _small_cfg())
        np.testing.assert_array_equal(model.flat_params, before)
    # a model that fits trains under the default cfg, whose widths are MNIST's,
    # and under cfg architecture fields no model could have, since train
    # reads only the cfg's schedule
    record = train(_build_for(_small_cfg()), ds, ds, TrainConfig(epochs=1))
    assert [r.epoch for r in record.rows] == [1]
    model = _build_for(_small_cfg(widths=[1, 4, 1]))
    for arch in (dict(degree=-1), dict(widths=[5, 0])):
        record = train(model, ds, ds, TrainConfig(epochs=1, batch_size=32, **arch))
        assert [r.epoch for r in record.rows] == [1], arch


def test_divergence_raises_with_location():
    cfg = _small_cfg(optimizer="sgd", lr=1e200, epochs=5)
    with pytest.raises(DivergenceError, match="epoch"):
        with np.errstate(all="ignore"):
            train(_build_for(cfg), _toy_regression(), _toy_regression(seed=1), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(epochs=-1).validate()
    with pytest.raises(ValueError):
        _small_cfg(batch_size=0).validate()
    with pytest.raises(ValueError):
        _small_cfg(optimizer="lbfgs").validate()
    with pytest.raises(ValueError):
        _small_cfg(max_steps=-1).validate()
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            _small_cfg(lr=lr).validate()
    with pytest.raises(ValueError, match="momentum"):
        _small_cfg(optimizer="sgd", momentum=float("nan")).validate()
    _small_cfg(optimizer="adam", momentum=float("nan")).validate()  # unused
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
    model = _build_for(cfg)
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


def test_grad_check_small_run_passes():
    assert grad_check(trials=15) <= 1e-5


def test_grad_check_flags_corrupted_backward(monkeypatch):
    backward = ChebyKanLayer.backward

    def flipped(self, dLdy):
        dx = backward(self, dLdy)
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


@pytest.mark.parametrize("seed", [10, 18, 27, 43])
def test_grad_check_resolves_tiny_gradient_entries(seed):
    # these seeds draw gradient entries near 1e-8, which central differences
    # resolved only to 1.4e-05 to 3.1e-05
    assert grad_check(trials=100, seed=seed) <= 1e-5


def test_run_csv_format():
    cfg = _small_cfg(epochs=2)
    record = train(_build_for(cfg), _toy_regression(), _toy_regression(seed=1), cfg)
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
        record = train(build(cfg.arch(), cfg.init, Rng(cfg.seed, "init")),
                       tr, te, cfg)
        assert record.final_metric > 0.15  # far above the 0.1 chance floor
