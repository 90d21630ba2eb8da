"""
Learning a noisy radial surface
===============================

The target starts from the smooth seed f(x, y) = 1/sqrt(x^2+y^2+1) +
sin(x^2+y^2) and adds five rounds of faint Gaussian noise (amplitude
alpha * b = 7e-4 per round), sampled on a 64 x 64 grid over [-2, 2]^2.
A [2, 64, 64, 1] degree-3 network drives the training MSE under 1% of its
starting value in about a minute of CPU.
"""

from chebykan import FractalParams, TrainConfig
from chebykan.experiments import FRACTAL_FIT_TRAINING, fit_fractal

# the defaults of `chebykan fractal`
params = FractalParams(seed=42)
cfg = TrainConfig(seed=42, **FRACTAL_FIT_TRAINING)
initial, record, model, ds = fit_fractal(cfg, params)
final = record.final_metric
print(f"grid points: {len(ds.features)}, z range "
      f"[{ds.targets.min():.3f}, {ds.targets.max():.3f}]")
print(f"initial MSE {initial:.4f} -> final MSE {final:.6f} "
      f"(ratio {final / initial:.4f})")

# with b = 0 the target is the bare seed function; the fit gets strictly better
smooth_final = fit_fractal(cfg, FractalParams(b=0.0, seed=42))[1].final_metric
print(f"noise-free final MSE {smooth_final:.6f} "
      f"(lower than noisy: {smooth_final < final})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    n = params.grid
    model.eval()
    pred = model.forward(ds.features).reshape(n, n)
    truth = ds.targets.reshape(n, n)
    fig, axes = plt.subplots(1, 2, figsize=(9, 4))
    for ax, z, title in ((axes[0], truth, "target"), (axes[1], pred, "learned")):
        im = ax.imshow(z, extent=[-2, 2, -2, 2], origin="lower")
        ax.set_title(title)
        fig.colorbar(im, ax=ax, shrink=0.8)
    fig.savefig("fractal_surface.png", dpi=120)
    print("wrote fractal_surface.png")
