import os
from pathlib import Path

import numpy as np
import pytest

from chebykan.data import (TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES,
                           TRAIN_LABELS, write_idx)

MNIST_FILES = (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)


def real_mnist_dir():
    """Directory holding the four decompressed IDX files, or None.

    Looked up from CHEBYKAN_MNIST_DIR, falling back to ./data/mnist. The
    dataset is not vendored, so the full-scale classification criteria skip
    unless the caller provides it.
    """
    d = Path(os.environ.get("CHEBYKAN_MNIST_DIR", "data/mnist"))
    if all((d / name).is_file() for name in MNIST_FILES):
        return d
    return None


def _synth_split(n, seed):
    """Easy stand-in digits: class c brightens pixel rows 2c and 2c+1."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    images = rng.integers(0, 40, (n, 28, 28)).astype(np.uint8)
    for i, c in enumerate(labels):
        images[i, 2 * int(c):2 * int(c) + 2, :] = 220
    return images, labels


def write_synth_mnist(d):
    """Write IDX files with MNIST's exact layout but synthetic, learnable
    content into directory d: 600 train and 200 test images. CI runs the
    MNIST demo on them too."""
    d = Path(d)
    tr_images, tr_labels = _synth_split(600, seed=0)
    te_images, te_labels = _synth_split(200, seed=1)
    write_idx(d / TRAIN_IMAGES, tr_images)
    write_idx(d / TRAIN_LABELS, tr_labels)
    write_idx(d / TEST_IMAGES, te_images)
    write_idx(d / TEST_LABELS, te_labels)


@pytest.fixture(scope="session")
def synth_mnist_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("idx")
    write_synth_mnist(d)
    return d
