"""Chebyshev Kolmogorov-Arnold networks in plain numpy.

Layers expand tanh-squashed inputs in a Chebyshev polynomial basis (first or
second kind) with learnable coefficient tensors; backpropagation is written
out by hand and audited against complex-step derivatives. The experiments
module reproduces the digit-classification, function-approximation,
fractal-surface, and ablation studies at desk scale.
"""

from .chebyshev import (PolyKind, eval_basis, eval_basis_derivative, extrema,
                        gauss_chebyshev, orthogonality_integral, roots)
from .data import (Dataset, FractalParams, IdxFormatError, NormScheme,
                   NormStats, apply_norm, fractal_grid, fractal_seed,
                   load_mnist_idx, read_idx, sample_function, write_idx)
from .experiments import (DivergenceError, RunRecord, TrainConfig, evaluate,
                          grad_check, run_ablation, train)
from .layers import ChebyKanLayer, InitMethod, LayerNorm, init_coeffs
from .ndcore import Rng, ShapeError
from .network import (MNIST_WIDTHS, ArchSpec, Sequential, build, load_network,
                      mnist_arch, param_count, save_network)
from .optim import Adam, mse_loss, softmax_cross_entropy

__version__ = "0.1.0"

__all__ = [
    "Adam", "ArchSpec", "ChebyKanLayer", "Dataset", "DivergenceError",
    "FractalParams", "IdxFormatError", "InitMethod", "LayerNorm",
    "MNIST_WIDTHS", "NormScheme", "NormStats", "PolyKind", "Rng", "RunRecord",
    "Sequential", "ShapeError", "TrainConfig", "apply_norm", "build",
    "eval_basis", "eval_basis_derivative", "evaluate", "extrema",
    "fractal_grid", "fractal_seed", "gauss_chebyshev", "grad_check",
    "init_coeffs", "load_mnist_idx", "load_network", "mnist_arch", "mse_loss",
    "orthogonality_integral", "param_count", "read_idx", "roots",
    "run_ablation", "sample_function", "save_network",
    "softmax_cross_entropy", "train", "write_idx",
]
