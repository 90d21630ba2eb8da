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
from .data import NormScheme, apply_norm, fractal_grid, sample_function
from .layers import ChebyKanLayer, InitMethod, LayerNorm
from .ndcore import Rng, check_seed
from .network import ArchSpec, build
from .optim import Adam, mse_loss, softmax_cross_entropy

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
# The fractal-surface recipe: the TrainConfig overrides of `chebykan fractal`.
FRACTAL_FIT_TRAINING = dict(widths=(2, 64, 64, 1), epochs=60, lr=1e-2)


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
    max_steps: int = None  # optional hard cap on optimizer steps
    f32: bool = False  # build the model in float32, else float64

    def validate(self):
        """Reject schedule values no run can use; each message names the
        offending field. `build` checks the architecture fields."""
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.optimizer != "adam":
            raise ValueError(f"optimizer must be 'adam', got {self.optimizer!r}")
        self.make_optimizer()  # its constructor checks lr
        check_seed(self.seed)

    def make_optimizer(self):
        """A fresh optimizer of this schedule, the one `train` steps with."""
        return Adam(self.lr)

    def build_model(self):
        """A fresh model of this spec and precision, init from the (seed, "init") substream."""
        return build(self.arch(), self.init, Rng(self.seed, "init"),
                     np.float32 if self.f32 else np.float64)

    def arch(self):
        return ArchSpec(widths=list(self.widths), degree=self.degree,
                        kind=self.kind, layernorm_between=self.layernorm)


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    test_loss: float
    metric: float

    def __post_init__(self):
        for split in ("train", "test"):
            if not np.isfinite(getattr(self, f"{split}_loss")):
                raise DivergenceError(f"non-finite {split} loss at the end of epoch {self.epoch}")


@dataclass
class RunRecord:
    rows: list
    final_metric: float
    wall_time_s: float

    def csv_lines(self):
        """The per-epoch CSV, then the wall time as a trailing comment."""
        return ([RUN_CSV_HEADER]
                + [f"{r.epoch},{r.train_loss!r},{r.test_loss!r},{r.metric!r}" for r in self.rows]
                + [f"# wall_time_s = {self.wall_time_s!r}"])


def _objective(ds, name="the dataset"):
    """The loss for `ds` and the answers it scores against: softmax
    cross-entropy on integer labels, else mean squared error on targets.
    ValueError, naming `name`, if its features are not a matrix, if `ds` is
    empty or has neither, if its labels are not integers or not one per
    feature row, or if its targets are not a matrix with one row per feature
    row."""
    if ds.features.ndim != 2:
        raise ValueError(f"{name} has features of shape {ds.features.shape}, "
                         f"not a matrix, (rows, width)")
    n = len(ds)
    if n == 0:
        raise ValueError(f"{name} is empty")
    if ds.labels is not None:
        if not np.issubdtype(ds.labels.dtype, np.integer):
            raise ValueError(f"{name} has labels of dtype {ds.labels.dtype}, not integers")
        if ds.labels.shape != (n,):
            raise ValueError(f"{name} has labels of shape {ds.labels.shape}, "
                             f"not one per feature row, ({n},)")
        return softmax_cross_entropy, ds.labels
    if ds.targets is None:
        raise ValueError(f"{name} has neither labels nor targets")
    if ds.targets.ndim != 2 or len(ds.targets) != n:
        raise ValueError(f"{name} has targets of shape {ds.targets.shape}, "
                         f"not one row per feature row, ({n}, width)")
    return mse_loss, ds.targets


def _loss_and_metric(model, ds):
    """Loss and metric of the whole split from one eval-mode forward (the layers
    bound its working set), then the model back in its old mode, also when the
    forward raises; the metric is accuracy on labels and the loss on targets."""
    loss_fn, answers = _objective(ds)
    was_training = model.training
    model.eval()
    try:
        y = model.forward(ds.features)
    finally:
        model.train(was_training)
    loss = loss_fn(y, answers)[0]
    return loss, (loss if ds.labels is None else float(np.mean(np.argmax(y, axis=1) == answers)))


def evaluate(model, ds, task):
    """classify -> argmax-match fraction (ties go to the lower class index),
    regress -> mean squared error, both from one eval forward over the whole
    split. Labels need classify, targets regress. ValueError if the split's
    features are not a matrix, if it is empty or answerless, or if its labels
    or targets do not fit its features."""
    _objective(ds)
    fits = "classify" if ds.labels is not None else "regress"
    if task != fits:
        raise ValueError(f"task must be {fits!r} for this dataset, got {task!r}")
    return _loss_and_metric(model, ds)[1]


# an overflow in a step or an evaluation ends in a non-finite loss, which
# raises DivergenceError, so numpy's warnings would only precede that message
@np.errstate(over="ignore", invalid="ignore")
def train(model, train_ds, test_ds, cfg):
    """Minibatch training; returns per-epoch rows plus a final summary.

    The objective comes from the data (cross-entropy and accuracy on labels,
    mean squared error on targets), the architecture from the model, and
    only the schedule from `cfg`: its epochs, batch_size, lr, optimizer,
    seed and max_steps, which `TrainConfig.validate` checks; its
    architecture fields are `build`'s to check. The model is left in training
    mode, whatever its mode before. Shuffle order comes from the (seed,
    "train/shuffle") substream, so a rerun with the same config reproduces
    the trajectory exactly. Each train_loss is the mean over the rows its
    epoch trained on. DivergenceError names the epoch and batch of a
    non-finite batch loss, and the epoch and split of a non-finite loss in an
    epoch's row. epochs=0 or max_steps=0 just evaluates the initialized model
    (a single epoch-0 row). Before any step, ValueError names the split if a
    split's features are not a matrix, or if it is empty, has neither labels
    nor targets, has labels that are not one non-negative integer per
    feature row, has targets that are not a matrix with one row per feature
    row, or has non-finite features or targets, and names `widths` unless the
    model's first width is each split's feature width and its last the
    target width or above the labels.
    """
    cfg.validate()
    first, last = model.layers[0].input_dim, model.layers[-1].output_dim
    for split, ds in (("train", train_ds), ("test", test_ds)):
        _objective(ds, f"the {split} dataset")  # ValueError on a split with no fitting answers
        for name, a in (("features", ds.features), ("targets", ds.targets)):
            # min and max propagate NaN and expose +/-inf without a mask array
            if a is not None and not (np.isfinite(a.min()) and np.isfinite(a.max())):
                raise ValueError(f"the {split} dataset has non-finite {name}")
        if ds.labels is not None and ds.labels.min() < 0:
            raise ValueError(f"the {split} dataset has a negative label, {ds.labels.min()}")
        if first != ds.features.shape[1]:
            raise ValueError(f"widths must start with the feature width "
                             f"{ds.features.shape[1]}, got {first}")
        if ds.labels is not None and last <= ds.labels.max():
            raise ValueError(f"widths must end with more than {ds.labels.max()} "
                             f"outputs (the largest label), got {last}")
        if ds.labels is None and last != ds.targets.shape[1]:
            raise ValueError(f"widths must end with the target width "
                             f"{ds.targets.shape[1]}, got {last}")
    loss_fn, answers = _objective(train_ds)
    rng = Rng(cfg.seed, "train/shuffle")
    opt = cfg.make_optimizer()
    t0 = time.perf_counter()
    rows = []
    n = len(train_ds)
    steps_left = math.inf if cfg.max_steps is None else cfg.max_steps
    model.train()
    for epoch in range(1, cfg.epochs + 1):
        if steps_left == 0:
            break
        order = rng.permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            loss, dLdy = loss_fn(model.forward(train_ds.features[idx]), answers[idx])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}"
                )
            model.backward(dLdy, input_grad=False)
            opt.step(model.flat_params, model.flat_grads)
            loss_sum += loss * len(idx)
            steps_left -= 1
            if steps_left == 0:
                break
        test_loss, metric = _loss_and_metric(model, test_ds)
        rows.append(EpochRow(epoch, loss_sum / (start + len(idx)), test_loss, metric))
    if not rows:  # no epoch ran: evaluate the initialized model
        train_loss, _ = _loss_and_metric(model, train_ds)
        test_loss, metric = _loss_and_metric(model, test_ds)
        rows.append(EpochRow(0, train_loss, test_loss, metric))
    wall = time.perf_counter() - t0
    return RunRecord(rows=rows, final_metric=rows[-1].metric, wall_time_s=wall)


def _einsum_forward(model, x, params):
    """The gradient oracle: `model`'s layers applied to x with the parameters
    in `params`, a vector laid out like `flat_params`. Deliberately separate
    from the layers' own forward (einsum, not reshape-matmul), and
    complex-analytic at every step (LayerNorm squares d as d*d, not |d|^2).
    The basis recurrence is shared: backward assumes Chebyshev identities, so
    a wrong basis still shows here."""
    ps = model.params()
    bounds = np.cumsum([p.size for p in ps])[:-1]
    tensors = iter(t.reshape(p.shape) for t, p in zip(np.split(params, bounds), ps))
    for layer in model.layers:
        if isinstance(layer, ChebyKanLayer):
            basis = _basis_stack(np.tanh(x), layer.degree, layer.kind)
            x = np.einsum("jbi,jio->bo", basis, next(tensors))
        elif isinstance(layer, LayerNorm):
            gamma, beta = next(tensors), next(tensors)
            d = x - x.mean(axis=1, keepdims=True)
            x = gamma * d / np.sqrt(np.mean(d * d, axis=1, keepdims=True) + layer.eps) + beta
        else:
            raise TypeError(f"no oracle forward for {type(layer).__name__}")
    return x


def _unit_directions(model, x):
    """One (v, u) pair per entry of `model`'s parameter vector and of x: v
    over the parameters and u over x, one entry 1 and every other 0."""
    n = model.flat_params.size
    for i in range(n + x.size):
        e = np.zeros(n + x.size)
        e[i] = 1.0
        yield e[:n], e[n:].reshape(x.shape)


def _directional_check(model, x, loss, dLdx, directions, h):
    """Worst relative error, over the (v, u) pairs in `directions`, of the
    gradients the last backward of `model` at x left: ``flat_grads`` and,
    unless `dLdx` is None (a ``backward(input_grad=False)``; u must then be
    zero), the returned dL/dx.

    v runs over the parameter vector and u over x. One complex
    `_einsum_forward` at (params + i*h*v, x + i*h*u) gives Im loss / h, the
    derivative along (v, u) up to O(h^2) with no subtraction (the complex
    step of Squire & Trapp, SIAM Review 40(1), 1998), so h can be as small as
    1e-40; it must equal flat_grads.v + sum(dLdx*u). Along `_unit_directions`
    a forward checks one entry, along a random direction every entry at
    once. `loss` must be complex-analytic. The relative error is
    |slope - numeric| / max(1e-12, |numeric|); a direction whose loss is
    non-finite in either part reads NaN, and so does the result.
    """
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # such a direction reads NaN
        for v, u in directions:
            slope = model.flat_grads @ v
            if dLdx is not None:
                slope += np.sum(dLdx * u)
            f = loss(_einsum_forward(model, x + 1j * h * u, model.flat_params + 1j * h * v))
            numeric = f.imag / h if np.isfinite(f) else np.nan
            worst = np.maximum(worst, abs(slope - numeric) / max(1e-12, abs(numeric)))
    return float(worst)


def grad_check(trials=100, h=1e-40, seed=1234):
    """Worst relative error of the backward pass against `_directional_check`
    (step ``h``) along `_unit_directions` over random small networks.

    Each trial draws widths (2-3 layers, 1-4 units), degree 0-6, either
    polynomial kind, and LayerNorm on/off, and checks the gradient of a
    weighted sum-of-squares loss at every parameter and input coordinate.
    At degree 0 the output ignores the input, so any nonzero analytic input
    gradient fails. A non-finite error makes the result non-finite, and an
    ``h`` that is not finite or is below the smallest normal float (a
    subnormal i*h loses bits), or ``trials < 1``, raises ValueError: such a
    run measures nothing.
    """
    if not np.finfo(float).tiny <= h < math.inf:
        raise ValueError(f"h must be finite and >= {np.finfo(float).tiny}, got {h}")
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

        y = model.forward(x)  # a built model is in training mode
        dLdx = model.backward(2.0 * w * y)
        loss = lambda out: np.sum(w * out * out)
        worst = np.maximum(worst, _directional_check(model, x, loss, dLdx,
                                                     _unit_directions(model, x), h))

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
    return train(cfg.build_model(), tr, te, cfg)


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
    model = cfg.build_model()
    return train(model, train_ds, test_ds, cfg), model, test_ds


def fit_fractal(cfg, params):
    """Fit the fractal surface `params` describes, training and scoring on its
    whole grid; returns the untrained MSE, the record, the model and the grid."""
    ds = fractal_grid(params)
    model = cfg.build_model()
    # epochs=0 runs train's data checks, then evaluates the untrained model
    initial_mse = train(model, ds, ds, replace(cfg, epochs=0)).final_metric
    return initial_mse, train(model, ds, ds, cfg), model, ds


def run_ablation(axis, base_cfg, train_raw, test_raw):
    """Sweep one axis against the digit-classification task.

    init sweeps the six coefficient initializations, degree sweeps 2-5, norm
    sweeps the three input schemes. kind compares the two polynomial kinds:
    test_accuracy comes from the classification run, while the test_loss
    column reports the function-approximation MSE for that kind.
    Rows are emitted in sweep order; param_count comes from
    network.param_count on the swept spec.
    """
    rows = []
    if axis not in ABLATION_SWEEPS:
        raise ValueError(f"unknown ablation axis {axis!r}; "
                         "choose init, degree, norm, or kind")
    for value in ABLATION_SWEEPS[axis]:
        cfg = replace(base_cfg, **{axis: value})
        rec = run_classifier(cfg, train_raw, test_raw)
        wall = rec.wall_time_s
        if axis == "kind":
            func_cfg = TrainConfig(seed=cfg.seed, kind=cfg.kind, f32=cfg.f32,
                                   **FUNCTION_FIT_TRAINING)
            func_rec = fit_function(func_cfg, "kind-function", **FUNCTION_FIT)[0]
            test_loss = func_rec.final_metric
            wall += func_rec.wall_time_s
        else:
            test_loss = rec.rows[-1].test_loss
        rows.append(AblationRow(axis_value=str(getattr(value, "value", value)),
                                test_accuracy=rec.final_metric, test_loss=test_loss,
                                param_count=network.param_count(cfg.arch()),
                                wall_time_s=wall))
    return rows


def ablation_csv_lines(rows):
    """The ablation CSV, one line per swept value in sweep order."""
    return [ABLATION_CSV_HEADER] + [
        f"{r.axis_value},{r.test_accuracy!r},{r.test_loss!r},{r.param_count},{r.wall_time_s!r}"
        for r in rows]
