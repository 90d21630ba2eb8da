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

from chebykan import InitMethod, NormScheme, TrainConfig
from chebykan.data import load_mnist
from chebykan.experiments import run_classifier
from chebykan.network import mnist_arch, param_count

SUBSET = 10000

try:
    train_raw, test_raw = load_mnist(subset=SUBSET)
except FileNotFoundError as e:
    raise SystemExit(f"{e}\nsee the module docstring for where to put them")
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
