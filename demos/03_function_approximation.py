"""
Fitting sin(x) + x^2 with a tiny KAN
====================================

A [1, 8, 1] network of degree-4 edges, trained with Adam for 2000 steps on
2000 uniform samples of f(x) = sin(x) + x^2 over [-2, 2]. The whole model is
a few hundred parameters yet lands around 1e-4 test MSE.
"""

import numpy as np

from chebykan import TrainConfig
from chebykan.experiments import FUNCTION_FIT, FUNCTION_FIT_TRAINING, fit_function

# the recipe `chebykan approx` runs at its defaults, seed 42 included
record, model, _ = fit_function(TrainConfig(seed=42, **FUNCTION_FIT_TRAINING),
                                "approx", **FUNCTION_FIT)
print(f"parameters: {model.flat_params.size}")
for row in record.rows[::10]:
    print(f"epoch {row.epoch:3d}  train {row.train_loss:.6f}  test {row.metric:.6f}")
print(f"final test MSE: {record.final_metric:.3e}")

# inspect the fit on a dense grid
grid = np.linspace(-2, 2, 9).reshape(-1, 1)
model.eval()
pred = model.forward(grid)
truth = np.sin(grid) + grid ** 2
print("\nx      true     predicted")
for x, t, p in zip(grid[:, 0], truth[:, 0], pred[:, 0]):
    print(f"{x:+.2f}  {t:+.4f}  {p:+.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    dense = np.linspace(-2, 2, 400).reshape(-1, 1)
    plt.plot(dense, np.sin(dense) + dense ** 2, label="target")
    plt.plot(dense, model.forward(dense), "--", label="KAN")
    plt.legend()
    plt.title("sin(x) + x^2, [1, 8, 1] degree-4 network")
    plt.savefig("approx_fit.png", dpi=120)
    print("\nwrote approx_fit.png")
