"""
Digit classification with a [784, 32, 16, 10] KAN
=================================================

Degree-3 first-kind edges, Xavier initialization, tanh input normalization,
LayerNorm between layers, Adam at 1e-3 for 10 epochs: about 97% test accuracy
from 103,136 parameters.

The IDX files are not bundled. Download and decompress the four standard
MNIST files (train-images-idx3-ubyte, train-labels-idx1-ubyte,
t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte) into ./data/mnist, or point
CHEBYKAN_MNIST_DIR at them. This demo trains on a 10,000-image subset to stay
under a few minutes; drop SUBSET to None for the full run.
"""

import os
from pathlib import Path

from chebykan import InitMethod, NormScheme, TrainConfig
from chebykan.data import (TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES,
                           TRAIN_LABELS, Dataset, load_mnist_idx)
from chebykan.experiments import run_classifier
from chebykan.network import mnist_arch, param_count

SUBSET = 10000

data_dir = Path(os.environ.get("CHEBYKAN_MNIST_DIR", "data/mnist"))
needed = [data_dir / n for n in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)]
missing = [p for p in needed if not p.is_file()]
if missing:
    raise SystemExit(
        "MNIST IDX files not found:\n  " + "\n  ".join(str(p) for p in missing)
        + "\nsee the module docstring for where to put them"
    )

train_raw = load_mnist_idx(data_dir / TRAIN_IMAGES, data_dir / TRAIN_LABELS)
test_raw = load_mnist_idx(data_dir / TEST_IMAGES, data_dir / TEST_LABELS)
if SUBSET is not None:
    train_raw = Dataset(features=train_raw.features[:SUBSET],
                        labels=train_raw.labels[:SUBSET])
print(f"train {len(train_raw)} / test {len(test_raw)} images")

cfg = TrainConfig(epochs=10, batch_size=64, lr=1e-3, seed=42, degree=3,
                  init=InitMethod.XAVIER, norm=NormScheme.TANH)
print(f"architecture {cfg.widths}, degree {cfg.degree}: "
      f"{param_count(mnist_arch(cfg.degree))} parameters")

# normalizes both splits with the train split's statistics, builds, trains
record = run_classifier(cfg, train_raw, test_raw)
for row in record.rows:
    print(f"epoch {row.epoch:2d}  train loss {row.train_loss:.4f}  "
          f"test loss {row.test_loss:.4f}  accuracy {row.metric:.4f}")
print(f"\nfinal test accuracy: {record.final_metric:.4f} "
      f"in {record.wall_time_s:.1f}s")
