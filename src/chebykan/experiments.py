"""Training loop, evaluation, gradient checking, and the ablation matrix.

Runs are deterministic for a fixed seed: shuffle order, initialization, and
the fractal/function data all come from named substreams of the run seed.
CSV schemas (exact headers): per-epoch runs use
``epoch,train_loss,test_loss,metric``; ablations use
``axis_value,test_accuracy,test_loss,param_count,wall_time_s``. This module
formats those CSVs as lines and writes no file.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import network
from .chebyshev import PolyKind, _basis_stack
from .data import Dataset, NormScheme, apply_norm, sample_function
from .layers import ChebyKanLayer, InitMethod, LayerNorm
from .ndcore import Rng
from .network import ArchSpec, build
from .optim import Adam, Sgd, mse_loss, softmax_cross_entropy

RUN_CSV_HEADER = "epoch,train_loss,test_loss,metric"
ABLATION_CSV_HEADER = "axis_value,test_accuracy,test_loss,param_count,wall_time_s"

# each ablation axis names the TrainConfig field it sweeps
ABLATION_SWEEPS = {
    "init": [InitMethod.XAVIER, InitMethod.HE, InitMethod.NORMAL,
             InitMethod.UNIFORM, InitMethod.LECUN, InitMethod.ORTHOGONAL],
    "degree": [2, 3, 4, 5],
    "norm": [NormScheme.TANH, NormScheme.MINMAX, NormScheme.STANDARDIZE],
    "kind": [PolyKind.FIRST, PolyKind.SECOND],
}

# The 1-D function-approximation recipe: the defaults of `chebykan approx` and
# the regression half of the polynomial-kind ablation. FUNCTION_FIT holds
# fit_function's arguments, FUNCTION_FIT_TRAINING its TrainConfig overrides.
FUNCTION_FIT = dict(target="sin_plus_sq", lo=-2.0, hi=2.0, n=2000, test_n=500,
                    steps=2000)
FUNCTION_FIT_TRAINING = dict(widths=(1, 8, 1), degree=4, lr=1e-2)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 42
    init: InitMethod = InitMethod.XAVIER
    norm: NormScheme = NormScheme.TANH
    degree: int = 3
    kind: PolyKind = PolyKind.FIRST
    widths: list = field(default_factory=lambda: list(network.MNIST_WIDTHS))
    layernorm: bool = True
    momentum: float = 0.9  # sgd only
    max_steps: int = None  # optional hard cap on optimizer steps
    dtype: type = np.float64  # model precision, passed to network.build

    def validate(self):
        """Reject values no run can use, the architecture's included; each
        message names the offending field."""
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.optimizer == "sgd" and not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        self.arch().validate()

    def arch(self):
        return ArchSpec(widths=list(self.widths), degree=self.degree,
                        kind=self.kind, layernorm_between=self.layernorm)


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    test_loss: float
    metric: float


@dataclass
class RunRecord:
    rows: list
    final_metric: float
    param_count: int
    wall_time_s: float

    def csv_lines(self):
        """The per-epoch CSV, then the wall time as a trailing comment."""
        return ([RUN_CSV_HEADER]
                + [f"{r.epoch},{r.train_loss!r},{r.test_loss!r},{r.metric!r}" for r in self.rows]
                + [f"# wall_time_s = {self.wall_time_s!r}"])


def _loss_and_metric(model, ds, task, chunk=1024):
    """Full-dataset loss and metric with the model frozen (eval mode)."""
    was_training = model.training
    model.eval()
    n = len(ds)
    loss_sum = 0.0
    correct = 0
    sq_sum = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        y = model.forward(ds.features[start:stop])
        if task == "classify":
            loss, _ = softmax_cross_entropy(y, ds.labels[start:stop])
            loss_sum += loss * (stop - start)
            correct += int(np.sum(np.argmax(y, axis=1) == ds.labels[start:stop]))
        else:
            diff = y - ds.targets[start:stop]
            sq_sum += float(np.sum(diff * diff))
    model.train(was_training)
    if task == "classify":
        return loss_sum / n, correct / n
    mse = sq_sum / (n * ds.targets.shape[1])
    return mse, mse


def evaluate(model, ds, task):
    """classify -> argmax-match fraction (argmax ties go to the lower class index);
    regress -> mean squared error. Labels need classify, targets regress."""
    fits = "classify" if ds.labels is not None else "regress"
    if task != fits:
        raise ValueError(f"task must be {fits!r} for this dataset, got {task!r}")
    _, metric = _loss_and_metric(model, ds, task)
    return metric


def train(model, train_ds, test_ds, cfg):
    """Minibatch training; returns per-epoch rows plus a final summary.

    Shuffle order comes from the (seed, "train/shuffle") substream, so a rerun
    with the same config reproduces the trajectory exactly. A non-finite batch
    loss aborts with the offending epoch/batch named. epochs=0 or max_steps=0
    just evaluates the initialized model (a single epoch-0 row). Before any
    step, ValueError names the split if a split is empty or has non-finite
    features or targets, and names `widths` unless the model's first width is
    each split's feature width and its last the target width or above the
    labels.
    """
    cfg.validate()
    first, last = model.layers[0].input_dim, model.layers[-1].output_dim
    for split, ds in (("train", train_ds), ("test", test_ds)):
        if len(ds) == 0:
            raise ValueError(f"the {split} dataset is empty")
        for name, a in (("features", ds.features), ("targets", ds.targets)):
            # min and max propagate NaN and expose +/-inf without a mask array
            if a is not None and not (np.isfinite(a.min()) and np.isfinite(a.max())):
                raise ValueError(f"the {split} dataset has non-finite {name}")
        if first != ds.features.shape[1]:
            raise ValueError(f"widths must start with the feature width "
                             f"{ds.features.shape[1]}, got {first}")
        if ds.labels is not None and last <= ds.labels.max():
            raise ValueError(f"widths must end with more than {ds.labels.max()} "
                             f"outputs (the largest label), got {last}")
        if ds.labels is None and last != ds.targets.shape[1]:
            raise ValueError(f"widths must end with the target width "
                             f"{ds.targets.shape[1]}, got {last}")
    task = "classify" if train_ds.labels is not None else "regress"
    rng = Rng(cfg.seed, "train/shuffle")
    opt = Adam(lr=cfg.lr) if cfg.optimizer == "adam" else Sgd(lr=cfg.lr, momentum=cfg.momentum)
    t0 = time.perf_counter()
    rows = []
    epochs = 0 if cfg.max_steps == 0 else cfg.epochs
    if epochs == 0:
        train_loss, _ = _loss_and_metric(model, train_ds, task)
        test_loss, metric = _loss_and_metric(model, test_ds, task)
        rows.append(EpochRow(0, train_loss, test_loss, metric))
    n = len(train_ds)
    step = 0
    stop_early = False
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            y = model.forward(train_ds.features[idx])
            if task == "classify":
                loss, dLdy = softmax_cross_entropy(y, train_ds.labels[idx])
            else:
                loss, dLdy = mse_loss(y, train_ds.targets[idx])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}"
                )
            model.backward(dLdy)
            opt.step(model.flat_params, model.flat_grads)
            loss_sum += loss * len(idx)
            step += 1
            if cfg.max_steps is not None and step >= cfg.max_steps:
                stop_early = True
                break
        test_loss, metric = _loss_and_metric(model, test_ds, task)
        rows.append(EpochRow(epoch, loss_sum / n, test_loss, metric))
        if stop_early:
            break
    wall = time.perf_counter() - t0
    return RunRecord(rows=rows, final_metric=rows[-1].metric,
                     param_count=model.param_count(), wall_time_s=wall)


def _forward_hp(model, x):
    """Independent extended-precision forward pass, the finite-difference oracle.

    Deliberately a separate implementation from the layers' own forward (einsum
    contraction instead of the reshape-matmul), run in longdouble so the
    probe's rounding noise sits well below the 1e-5 relative-error gate even
    where a gradient entry happens to be tiny. The basis recurrence is shared:
    backward assumes Chebyshev identities, so a wrong basis still shows here.
    """
    h = np.asarray(x, dtype=np.longdouble)
    for layer in model.layers:
        if isinstance(layer, ChebyKanLayer):
            basis = _basis_stack(np.tanh(h), layer.degree, layer.kind)
            h = np.einsum("bji,ioj->bo", basis, layer.coeffs.astype(np.longdouble))
        elif isinstance(layer, LayerNorm):
            mean = h.mean(axis=1, keepdims=True)
            var = np.mean((h - mean) ** 2, axis=1, keepdims=True)
            xhat = (h - mean) / np.sqrt(var + layer.eps)
            h = layer.gamma.astype(np.longdouble) * xhat + layer.beta.astype(np.longdouble)
        else:
            raise TypeError(f"no high-precision forward for {type(layer).__name__}")
    return h


def grad_check(trials=100, h=1e-6, seed=1234, corrupt=False):
    """Worst finite-difference relative error over random small networks.

    Each trial draws widths (2-3 layers, 1-4 units), degree 0-6, either
    polynomial kind, and LayerNorm on/off, then perturbs every entry of the
    parameter vector and every input coordinate by +/-h around a weighted
    sum-of-squares loss, differencing the independent `_forward_hp` oracle.
    Relative error is |analytic - numeric| / max(1e-12, |numeric|); the
    denominator uses the actually-stored step (old+h) - (old-h), exact in
    float64, so step representation error drops out. At degree 0 the output
    ignores the input, so any nonzero analytic input gradient fails.
    ``corrupt=True`` flips the sign of the largest analytic gradient entry — a
    self-test that the harness does flag a broken backward pass. A non-finite
    relative error makes the result non-finite, and a step ``h`` that is not
    finite and > 0, or ``trials < 1``, raises ValueError, since such a run
    would measure nothing.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be finite and > 0, got {h}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    root = Rng(seed, "gradcheck")
    worst = 0.0

    for trial in range(trials):
        r = root.substream(f"trial{trial}")
        n_layers = r.integers(1, 3)
        widths = [r.integers(1, 5) for _ in range(n_layers + 1)]
        degree = r.integers(0, 7)
        kind = PolyKind.FIRST if r.integers(0, 2) == 0 else PolyKind.SECOND
        use_ln = r.integers(0, 2) == 1
        batch = r.integers(1, 4)
        spec = ArchSpec(widths=widths, degree=degree, kind=kind, layernorm_between=use_ln)
        model = build(spec, InitMethod.LECUN, r.substream("init"))
        x = r.uniform(-1.5, 1.5, (batch, widths[0]))
        w = r.uniform(0.5, 1.5, (batch, widths[-1]))
        w_hp = np.asarray(w, dtype=np.longdouble)

        model.train()
        y = model.forward(x)
        dLdx = model.backward(2.0 * w * y)
        analytic = model.flat_grads.copy()

        if corrupt:
            k = int(np.argmax(np.abs(analytic)))
            analytic[k] = -analytic[k]

        def loss_hp(xin):
            out = _forward_hp(model, xin)
            return np.sum(w_hp * out * out)

        def fd(arr, i, xin):
            old = arr.flat[i]
            arr.flat[i] = old + h
            up = arr.flat[i]
            lp = loss_hp(xin)
            arr.flat[i] = old - h
            down = arr.flat[i]
            lm = loss_hp(xin)
            arr.flat[i] = old
            return float((lp - lm) / np.longdouble(up - down))

        for i in range(analytic.size):
            num = fd(model.flat_params, i, x)
            rel = abs(analytic[i] - num) / max(1e-12, abs(num))
            worst = np.maximum(worst, rel)

        xp = x.copy()
        for i in range(x.size):
            num = fd(xp, i, xp)
            rel = abs(dLdx.flat[i] - num) / max(1e-12, abs(num))
            worst = np.maximum(worst, rel)

    return float(worst)


@dataclass
class AblationRow:
    axis_value: str
    test_accuracy: float
    test_loss: float
    param_count: int
    wall_time_s: float


def run_classifier(cfg, train_raw, test_raw):
    """Normalize (train stats reused for test), build, train; returns the record."""
    tr = apply_norm(train_raw, cfg.norm)
    te = apply_norm(test_raw, cfg.norm, stats=tr.norm)
    model = build(cfg.arch(), cfg.init, Rng(cfg.seed, "init"), cfg.dtype)
    return train(model, tr, te, cfg)


def fit_function(cfg, stream, target, lo, hi, n, test_n, steps):
    """Fit a named 1-D target on [lo, hi] with `steps` optimizer steps.

    The n train and test_n test samples come from the "train" and "test"
    substreams of (cfg.seed, stream), so each caller's label keeps its own
    draws. cfg's epochs and max_steps are replaced by `steps`. Returns the
    run record, the trained model and the test split.
    """
    if test_n < 1:
        raise ValueError(f"test_n must be >= 1, got {test_n}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rng = Rng(cfg.seed, stream)
    train_ds = sample_function(target, lo, hi, n, rng.substream("train"))
    test_ds = sample_function(target, lo, hi, test_n, rng.substream("test"))
    # every epoch takes at least one optimizer step, so `steps` epochs suffice
    cfg = replace(cfg, epochs=steps, max_steps=steps)
    model = build(cfg.arch(), cfg.init, Rng(cfg.seed, "init"), cfg.dtype)
    return train(model, train_ds, test_ds, cfg), model, test_ds


def run_ablation(axis, base_cfg, train_raw, test_raw):
    """Sweep one axis against the digit-classification task.

    init sweeps the six coefficient initializations, degree sweeps 2-5, norm
    sweeps the three input schemes. kind compares the two polynomial kinds:
    test_accuracy comes from the classification run, while the test_loss
    column reports the function-approximation MSE for that kind.
    Rows are emitted in sweep order; param_count always comes from
    network.param_count on the swept spec.
    """
    rows = []
    records = []
    if axis not in ABLATION_SWEEPS:
        raise ValueError(f"unknown ablation axis {axis!r}; "
                         "choose init, degree, norm, or kind")
    for value in ABLATION_SWEEPS[axis]:
        cfg = replace(base_cfg, **{axis: value})
        rec = run_classifier(cfg, train_raw, test_raw)
        wall = rec.wall_time_s
        if axis == "kind":
            func_cfg = TrainConfig(seed=cfg.seed, kind=cfg.kind, dtype=cfg.dtype,
                                   **FUNCTION_FIT_TRAINING)
            func_rec = fit_function(func_cfg, "kind-function", **FUNCTION_FIT)[0]
            test_loss = func_rec.final_metric
            wall += func_rec.wall_time_s
        else:
            test_loss = rec.rows[-1].test_loss
        expected = network.param_count(cfg.arch())
        assert rec.param_count == expected, "param_count drifted from the spec formula"
        rows.append(AblationRow(axis_value=str(getattr(value, "value", value)),
                                test_accuracy=rec.final_metric, test_loss=test_loss,
                                param_count=expected, wall_time_s=wall))
        records.append(rec)
    return rows, records


def ablation_csv_lines(rows):
    """The ablation CSV, one line per swept value in sweep order."""
    return [ABLATION_CSV_HEADER] + [
        f"{r.axis_value},{r.test_accuracy!r},{r.test_loss!r},{r.param_count},{r.wall_time_s!r}"
        for r in rows]
