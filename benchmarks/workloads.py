"""The benchmark's workloads, driven through the package's public API.

Every workload has the same shape: ``prepare`` makes the seeded inputs (not
timed), ``setup`` turns them into a ready model and datasets (timed as
``setup_s``). A training workload's ``unit`` trains a fresh model once, the
same fixed, deterministic work every time, and checks its outputs; the digest
of its loss rows must repeat exactly from unit to unit. ``eval_pass`` runs
eval-mode forward over 1,024-row chunks, timing each call, on the last trained
model or, for the forward-only workload, on the loaded one. Every chunk's
logits must repeat exactly from pass to pass.

Package functions are called through their modules (``experiments.train``,
not ``from chebykan import train``) so the traced run's wrappers see them.
"""

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chebykan import data, experiments, network
from chebykan.chebyshev import PolyKind
from chebykan.data import (TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS,
                           Dataset, NormScheme)
from chebykan.experiments import TrainConfig
from chebykan.layers import InitMethod
from chebykan.ndcore import Rng

EVAL_CHUNK = 1024  # rows per eval forward, the chunk experiments._loss_and_metric uses
MNIST_TRAIN_N = 60_000
MNIST_TEST_N = 10_000
MNIST_SUBSET = 6_000  # leading training examples used, as `chebykan mnist --subset`
ACCURACY_FLOOR = 0.95  # synthetic digits are separable; one epoch reaches ~1.0
EINSUM_RTOL = 1e-10  # |logits - float64 einsum reference| / max|reference|


@dataclass
class Record:
    """What the runner collects from units: timings, outcomes and digests."""

    train_s: list = field(default_factory=list)  # wall of each train() call
    train_steps: list = field(default_factory=list)  # optimizer steps of each call
    batch_s: list = field(default_factory=list)  # wall of each eval forward batch
    batch_rows: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = None  # of the first unit's loss rows
    chunk_digests: dict = field(default_factory=dict)  # eval chunk start row -> logits digest

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def run_digest(self):
        return _sha(self.digest, *self.chunk_digests.values())

    def check_digest(self, digest, what):
        if self.digest is None:
            self.digest = digest
        self.check(digest == self.digest, f"{what}: digest {digest} != first {self.digest}")


def synth_digits(n, rng):
    """MNIST-shaped digits: class c brightens pixel rows 2c and 2c+1 (tests/conftest.py)."""
    labels = rng.integers(0, 10, n).astype(np.uint8)
    images = rng.integers(0, 40, (n, 28, 28)).astype(np.uint8)
    images[(np.arange(28) // 2)[None, :] == labels[:, None]] = 220
    return images, labels


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def timed_eval(model, features, rec, what):
    """One eval-mode pass over full EVAL_CHUNK-row chunks, each forward timed from outside.

    Every chunk's logits must be finite and identical on every pass.
    """
    model.eval()
    for start in range(0, len(features) - EVAL_CHUNK + 1, EVAL_CHUNK):
        x = features[start:start + EVAL_CHUNK]
        t0 = time.perf_counter()
        y = model.forward(x)
        rec.batch_s.append(time.perf_counter() - t0)
        rec.batch_rows += len(x)
        d = _sha(y.tobytes())
        first = rec.chunk_digests.setdefault(start, d)
        rec.check(bool(np.isfinite(y).all()) and d == first,
                  f"{what}: eval chunk at row {start} non-finite or not repeatable")


def _steps(n, cfg):
    return cfg.epochs * math.ceil(n / cfg.batch_size)


class Workload:
    name = None
    trains = True  # False: the workload is eval passes only, and has no unit()

    def prepare(self):
        """Write the seeded inputs; not timed."""

    def setup(self):
        """Load inputs and ready the model; timed as setup_s."""
        raise NotImplementedError

    def checks(self, rec):
        """One-off output checks after set-up, outside every timed region."""

    def unit(self, rec):
        """Train a fresh model once; timed into ``rec``, outputs checked."""
        raise NotImplementedError

    def eval_pass(self, rec):
        """One timed eval pass of the last trained model over the eval features."""
        timed_eval(self.trained, self.eval_features, rec, self.name)

    def step(self, rec):
        """The workload's own work: a training unit, or an eval pass if it does not train."""
        if self.trains:
            self.unit(rec)
        else:
            self.eval_pass(rec)


class MnistTrain(Workload):
    """The paper's classifier trained on MNIST-shaped synthetic digits.

    Why: the wide 784->32 layer at batch 64, where ChebyKanLayer.backward,
    the training forward and Adam dominate. This is what `chebykan mnist`
    and every ablation row run.
    """

    name = "mnist_train"

    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, Path(workdir)
        self.spec = network.mnist_arch(degree=3, kind=PolyKind.FIRST)
        self.cfg = TrainConfig(epochs=1, batch_size=64, lr=1e-3, optimizer="adam",
                               seed=seed, init=InitMethod.XAVIER, norm=NormScheme.TANH,
                               degree=3, kind=PolyKind.FIRST,
                               widths=list(network.MNIST_WIDTHS), layernorm=True)

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        for (img_name, lab_name), n in (((TRAIN_IMAGES, TRAIN_LABELS), MNIST_TRAIN_N),
                                        ((TEST_IMAGES, TEST_LABELS), MNIST_TEST_N)):
            images, labels = synth_digits(n, rng)
            data.write_idx(self.dir / img_name, images)
            data.write_idx(self.dir / lab_name, labels)

    def setup(self):
        train_raw = data.load_mnist_idx(self.dir / TRAIN_IMAGES, self.dir / TRAIN_LABELS)
        test_raw = data.load_mnist_idx(self.dir / TEST_IMAGES, self.dir / TEST_LABELS)
        subset = Dataset(features=train_raw.features[:MNIST_SUBSET],
                         labels=train_raw.labels[:MNIST_SUBSET])
        del train_raw
        self.train_ds = data.apply_norm(subset, self.cfg.norm)
        self.test_ds = data.apply_norm(test_raw, self.cfg.norm, stats=self.train_ds.norm)
        model = network.build(self.spec, self.cfg.init, Rng(self.seed, "init"))
        self.initial_accuracy = experiments.evaluate(model, self.test_ds, "classify")

    def unit(self, rec):
        model = network.build(self.spec, self.cfg.init, Rng(self.seed, "init"))
        t0 = time.perf_counter()
        run = experiments.train(model, self.train_ds, self.test_ds, self.cfg)
        rec.train_s.append(time.perf_counter() - t0)
        rec.train_steps.append(_steps(len(self.train_ds), self.cfg))
        losses = [(r.train_loss, r.test_loss, r.metric) for r in run.rows]
        rec.check(all(math.isfinite(v) for row in losses for v in row)
                  and run.final_metric >= ACCURACY_FLOOR,
                  f"{self.name}: losses {losses}, accuracy floor {ACCURACY_FLOOR}")
        rec.check_digest(_sha(losses), self.name)
        self.trained, self.eval_features = model, self.test_ds.features


def reference_forward(model, x):
    """Independent float64 forward: tanh, basis by recurrence, einsum contraction.

    LayerNorm between KAN layers is recomputed from its definition.
    """
    h = np.array(x, dtype=np.float64)
    for layer in model.layers:
        if hasattr(layer, "coeffs"):
            xt = np.tanh(h)
            basis = [np.ones_like(xt)]
            if layer.degree >= 1:
                basis.append(xt if layer.kind is PolyKind.FIRST else 2.0 * xt)
            while len(basis) <= layer.degree:
                basis.append(2.0 * xt * basis[-1] - basis[-2])
            h = np.einsum("bij,ioj->bo", np.stack(basis, axis=-1), layer.coeffs)
        else:
            mean = h.mean(axis=1, keepdims=True)
            var = ((h - mean) ** 2).mean(axis=1, keepdims=True)
            h = layer.gamma * (h - mean) / np.sqrt(var + layer.eps) + layer.beta
    return h


class MnistEval(Workload):
    """Batch inference of a saved [784,32,16,10] model, degree 5, second kind.

    Why: forward only at batch 1,024, the top degree of the paper's sweep and
    the other polynomial kind. No backward, optimizer or training cache, so a
    change that moves work from backward into forward shows up here as a loss.
    """

    name = "mnist_eval"
    trains = False

    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, Path(workdir)
        self.spec = network.mnist_arch(degree=5, kind=PolyKind.SECOND)
        self.model_path = self.dir / "mnist_eval.ckpt"

    def prepare(self):
        rng = np.random.default_rng([self.seed, 3])
        images, labels = synth_digits(MNIST_TEST_N, rng)
        data.write_idx(self.dir / TEST_IMAGES, images)
        data.write_idx(self.dir / TEST_LABELS, labels)
        model = network.build(self.spec, InitMethod.XAVIER, Rng(self.seed, "init"))
        network.save_network(model, self.spec, self.model_path)
        self.saved_params = [p.copy() for p in model.params()]

    def setup(self):
        test_raw = data.load_mnist_idx(self.dir / TEST_IMAGES, self.dir / TEST_LABELS)
        self.test_ds = data.apply_norm(test_raw, NormScheme.TANH)
        self.model, self.loaded_spec = network.load_network(self.model_path)

    def checks(self, rec):
        """Round trip through save/load, and logits against the einsum reference."""
        loaded = self.model.params()
        rec.check(self.loaded_spec == self.spec and len(loaded) == len(self.saved_params)
                  and all(np.array_equal(a, b) for a, b in zip(loaded, self.saved_params)),
                  f"{self.name}: load_network did not return the saved parameters")
        x = self.test_ds.features[:EVAL_CHUNK]
        self.model.eval()
        y = self.model.forward(x)
        ref = reference_forward(self.model, x)
        err = float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))
        rec.check(err <= EINSUM_RTOL,
                  f"{self.name}: logits differ from the einsum reference by {err!r}")

    def eval_pass(self, rec):
        timed_eval(self.model, self.test_ds.features, rec, self.name)


WORKLOADS = {w.name: w for w in (MnistTrain, MnistEval)}
