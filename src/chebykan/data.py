"""Dataset construction: MNIST IDX files, input normalization, synthetic targets.

IDX files are big-endian: a 4-byte magic (0x00000803 for image files,
0x00000801 for label files), one big-endian u32 per dimension, then raw
bytes. Files must already be decompressed; gzip is not handled here.
Pixel features are scaled to [0, 1] by /255 at load time, before any of the
selectable normalization schemes, so the schemes compete on equal footing.
"""

import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .ndcore import Rng

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


class IdxFormatError(ValueError):
    """An IDX file has a bad magic, a truncated body, or inconsistent counts."""


class NormScheme(Enum):
    TANH = "tanh"
    MINMAX = "minmax"
    STANDARDIZE = "standardize"


@dataclass
class NormStats:
    """Scheme tag plus the per-feature statistics fitted on the training split."""

    scheme: NormScheme
    lo: np.ndarray = None
    hi: np.ndarray = None
    mean: np.ndarray = None
    std: np.ndarray = None


@dataclass
class Dataset:
    """Feature matrix plus either regression targets or integer class labels."""

    features: np.ndarray
    targets: np.ndarray = None
    labels: np.ndarray = None
    norm: NormStats = None

    def __len__(self):
        return self.features.shape[0]


def idx_header_bytes(magic, dims):
    """Big-endian header: magic then one u32 per dimension."""
    out = magic.to_bytes(4, "big")
    for d in dims:
        out += int(d).to_bytes(4, "big")
    return out


def read_idx(path, expected_magic):
    """Parse an unsigned-byte IDX file with the given magic into a uint8 array
    of the header's shape."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 4:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic = int.from_bytes(data[:4], "big")
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x} but expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    dims = [int.from_bytes(data[4 + 4 * i:8 + 4 * i], "big") for i in range(ndim)]
    body = data[header_len:]
    expected = math.prod(dims)
    if len(body) != expected:
        raise IdxFormatError(f"{path}: header implies {expected} data bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(dims)


def write_idx(path, arr):
    """Write an array of bytes as IDX: 1-D arrays as labels, 3-D as images.
    Any dtype but an integer one, and any value outside [0, 255], raises
    ValueError rather than being cast."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        if arr.dtype.kind not in "iu":
            raise ValueError(f"IDX writer needs an integer array, got dtype {arr.dtype}")
        if arr.size and not (arr.min() >= 0 and arr.max() <= 255):
            raise ValueError(f"IDX writer needs values in [0, 255], "
                             f"got [{arr.min()}, {arr.max()}]")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim == 1:
        magic = LABELS_MAGIC
    elif arr.ndim == 3:
        magic = IMAGES_MAGIC
    else:
        raise ValueError(f"IDX writer handles 1-D labels or 3-D images, got {arr.ndim}-D")
    Path(path).write_bytes(idx_header_bytes(magic, arr.shape) + arr.tobytes())


def load_mnist_idx(images_path, labels_path):
    """Load an image/label IDX pair; features land in [0, 1], labels in [0, 10)."""
    images = read_idx(images_path, IMAGES_MAGIC)
    labels = read_idx(labels_path, LABELS_MAGIC)
    if images.shape[0] == 0:
        raise IdxFormatError(f"{images_path}: holds no images")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    feats = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    labs = labels.astype(np.int64)
    if labs.size and labs.max() > 9:
        raise IdxFormatError(f"{labels_path}: label {labs.max()} outside [0, 10)")
    return Dataset(features=feats, labels=labs)


def load_mnist(data_dir=None, subset=None):
    """The MNIST train and test splits from the four IDX files in `data_dir`
    ($CHEBYKAN_MNIST_DIR when None, else ./data/mnist), the train split cut
    to its first `subset` examples. A subset below 1 raises ValueError before
    any file is read; FileNotFoundError names every missing file."""
    if subset is not None and subset < 1:
        raise ValueError(f"subset must be >= 1, got {subset}")
    d = Path(os.environ.get("CHEBYKAN_MNIST_DIR", "data/mnist") if data_dir is None else data_dir)
    paths = [d / name for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise FileNotFoundError("missing MNIST files: " + ", ".join(missing))
    train, test = load_mnist_idx(*paths[:2]), load_mnist_idx(*paths[2:])
    return Dataset(features=train.features[:subset], labels=train.labels[:subset]), test


def apply_norm(ds, scheme, stats=None):
    """Normalized copy of a dataset.

    With stats=None the statistics are fitted on ds (the training split); pass
    the training split's fitted stats to transform a test split identically.
    Min-max maps the fitted [min, max] of each feature onto [-1, 1] (constant
    features map to 0); standardize uses (x - mean)/(std + 1e-8); tanh needs
    no statistics.
    """
    f = ds.features
    if stats is not None and stats.scheme is not scheme:
        raise ValueError(f"stats were fitted for {stats.scheme}, not {scheme}")
    if scheme is NormScheme.TANH:
        out = np.tanh(f)
        stats = stats or NormStats(scheme=scheme)
    elif scheme is NormScheme.MINMAX:
        if stats is None:
            stats = NormStats(scheme=scheme, lo=f.min(axis=0), hi=f.max(axis=0))
        span = stats.hi - stats.lo
        safe = np.where(span > 0, span, 1.0)
        out = np.where(span > 0, 2.0 * (f - stats.lo) / safe - 1.0, 0.0)
    elif scheme is NormScheme.STANDARDIZE:
        if stats is None:
            stats = NormStats(scheme=scheme, mean=f.mean(axis=0), std=f.std(axis=0))
        out = (f - stats.mean) / (stats.std + 1e-8)
    else:
        raise ValueError(f"unknown normalization scheme: {scheme}")
    return Dataset(features=out.astype(np.float64, copy=False),
                   targets=ds.targets, labels=ds.labels, norm=stats)


def target_sin_plus_sq(x):
    return np.sin(x) + x * x


def target_polynomial(x):
    # representative cubic: x^3 - 2x^2 + x
    return x ** 3 - 2.0 * x ** 2 + x


def target_step(x):
    return np.where(x >= 0.0, 1.0, 0.0)


TARGETS = {
    "sin_plus_sq": target_sin_plus_sq,
    "polynomial": target_polynomial,
    "step": target_step,
}


def sample_function(target, lo, hi, n, rng):
    """n uniform samples of a named 1-D target function on [lo, hi]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"lo and hi must be finite, got [{lo}, {hi}]")
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(float(hi) - float(lo)):  # Python floats overflow without a warning
        raise ValueError(f"hi - lo must be finite, got [{lo}, {hi}]")
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {sorted(TARGETS)}")
    x = rng.uniform(lo, hi, (n, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the cause
        y = TARGETS[target](x)
    if not np.isfinite(y).all():
        raise ValueError(f"target {target!r} is not finite on [lo, hi] = [{lo}, {hi}]")
    return Dataset(features=x, targets=y)


@dataclass
class FractalParams:
    """Noisy radial surface: iterated additive noise on a smooth seed."""

    alpha: float = 0.7
    b: float = 0.001
    iters: int = 5
    grid: int = 64
    extent: float = 2.0
    seed: int = 0

    def validate(self):
        for name in ("alpha", "b", "extent"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.iters < 0:
            raise ValueError(f"iters must be >= 0, got {self.iters}")
        if self.grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.grid}")
        if self.extent <= 0:
            raise ValueError(f"extent must be > 0, got {self.extent}")


def fractal_seed(x, y):
    """Smooth seed surface 1/sqrt(x^2 + y^2 + 1) + sin(x^2 + y^2)."""
    r2 = x * x + y * y
    return 1.0 / np.sqrt(r2 + 1.0) + np.sin(r2)


def fractal_grid(params):
    """Grid dataset z = seed(x, y) + sum_{i=1..iters} alpha*b*g_i.

    Each g_i is an independent standard-normal field over the grid, drawn from
    the substream (seed, i), so identical params give bitwise-identical z and
    b = 0 degenerates to the exact seed surface.
    """
    params.validate()
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the cause
        axis = np.linspace(-params.extent, params.extent, params.grid)
        gx, gy = np.meshgrid(axis, axis, indexing="xy")
        z = fractal_seed(gx, gy)
        for i in range(1, params.iters + 1):
            noise = Rng(params.seed, f"fractal-noise/{i}").normal(0.0, 1.0, z.shape)
            z = z + params.alpha * params.b * noise
    if not np.isfinite(z).all():
        raise ValueError(f"the surface is not finite for extent {params.extent}, "
                         f"alpha {params.alpha} and b {params.b}")
    feats = np.column_stack([gx.ravel(), gy.ravel()])
    return Dataset(features=feats, targets=z.reshape(-1, 1))


def grid_lines(ds):
    """Plain-text grid dump, one `x y z` line per point, for external plotting."""
    if ds.targets is None or ds.features.shape[1] != 2:
        raise ValueError("grid dump needs 2-D features and targets")
    return [f"{float(x)!r} {float(y)!r} {float(z)!r}"
            for (x, y), z in zip(ds.features, ds.targets[:, 0])]
