"""Sequential layer composition, the parameter vector, and save/load.

The digit-classification architecture is [784, 32, 16, 10] with LayerNorm
after the first two KAN layers. Those widths are reconstructed from the
trainable-parameter totals: the per-degree increment 25,760 factors as
784*32 + 32*16 + 16*10, and the degree-independent residual 96 = 2*(32+16)
is exactly the LayerNorm scale/shift on the two interior boundaries. The
closed-form count here is the single source of truth for every reported
parameter total.
"""

from dataclasses import dataclass

import numpy as np

from .chebyshev import PolyKind
from .layers import ChebyKanLayer, LayerNorm, init_coeffs
from .ndcore import check_int, check_type

MNIST_WIDTHS = [784, 32, 16, 10]

_HEADER_TAG = "chebykan-v1"


@dataclass(frozen=True)
class ArchSpec:
    """Widths plus shared degree/kind and LayerNorm placement for a KAN stack,
    each checked when built, with a ValueError naming it: a list or tuple of
    2 or more integer widths >= 1 (held as a tuple), an integer degree >= 0."""

    widths: tuple
    degree: int
    kind: PolyKind = PolyKind.FIRST
    layernorm_between: bool = True

    def __post_init__(self):
        if not isinstance(self.widths, (list, tuple)) or len(self.widths) < 2:
            raise ValueError(f"need at least 2 widths, got {self.widths!r}")
        object.__setattr__(self, "widths", tuple(check_int("widths", w, 1) for w in self.widths))
        object.__setattr__(self, "degree", check_int("degree", self.degree, 0))
        check_type("kind", self.kind, PolyKind)
        check_type("layernorm_between", self.layernorm_between, bool)

    def arch_string(self):
        w = ",".join(map(str, self.widths))
        ln = 1 if self.layernorm_between else 0
        return f"widths={w};degree={self.degree};kind={self.kind.value};ln={ln}"


def param_count(spec):
    """Trainable parameters of the network `build` would produce for this spec."""
    w = spec.widths
    kan = sum(a * b for a, b in zip(w[:-1], w[1:])) * (spec.degree + 1)
    ln = 2 * sum(w[1:-1]) if spec.layernorm_between else 0
    return kan + ln


class Sequential:
    """Ordered layer stack; forward composes in order, backward in reverse.

    The stack owns one parameter vector, ``flat_params``, and one gradient
    vector of the same size, ``flat_grads``. Every layer parameter (and its
    ``grad_`` twin) is rebound to a view into them, keeping its values, in
    declaration order: layer by layer, each layer's ``param_names`` in turn.
    The checkpoint stream's order is save_network's and load_network's alone.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self.training = True
        self.flat_params = np.concatenate([p.ravel() for p in self.params()])
        self.flat_grads = np.zeros_like(self.flat_params)
        offset = 0
        for layer in self.layers:
            for name in layer.param_names:
                p = getattr(layer, name)
                end = offset + p.size
                setattr(layer, name, self.flat_params[offset:end].reshape(p.shape))
                setattr(layer, "grad_" + name, self.flat_grads[offset:end].reshape(p.shape))
                offset = end

    def train(self, mode=True):
        self.training = mode
        for layer in self.layers:
            layer.training = mode
        return self

    def eval(self):
        return self.train(False)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dLdy, input_grad=True):
        """Fill ``flat_grads`` from dL/dy of the last forward; return dL/dx,
        or None with ``input_grad=False``, where the first layer skips it."""
        for layer in reversed(self.layers[1:]):
            dLdy = layer.backward(dLdy)
        return self.layers[0].backward(dLdy, input_grad)

    def params(self):
        """Per-tensor views into ``flat_params``, in declaration order."""
        return [getattr(layer, name) for layer in self.layers for name in layer.param_names]


def _layers(spec, dtype=np.float64):
    """The zeroed layers spec describes, in order: a LayerNorm follows each
    KAN layer except the last."""
    w, n_pairs = spec.widths, len(spec.widths) - 1
    layers = []
    for k in range(n_pairs):
        layers.append(ChebyKanLayer(w[k], w[k + 1], spec.degree, spec.kind, dtype=dtype))
        if spec.layernorm_between and k < n_pairs - 1:
            layers.append(LayerNorm(w[k + 1], dtype=dtype))
    return layers


def build(spec, init, rng, dtype=np.float64):
    """KAN stack per spec, its coefficients drawn by the ``init`` method.

    KAN layer k draws from ``rng.substream(f"kan{k}")``, so changing one
    width never shifts another layer's draws. ``dtype`` (float32 or float64)
    is the precision of the parameters, gradients and activations for the
    model's lifetime; inputs of any float dtype are cast to it at each layer.
    """
    seq = Sequential(_layers(spec, dtype))
    kans = [layer for layer in seq.layers if isinstance(layer, ChebyKanLayer)]
    for k, kan in enumerate(kans):
        init_coeffs(kan, init, rng.substream(f"kan{k}"))
    return seq


def mnist_arch(degree=3, kind=PolyKind.FIRST):
    return ArchSpec(widths=list(MNIST_WIDTHS), degree=degree, kind=kind, layernorm_between=True)


def _header(spec):
    """The v1 header line save_network writes for spec."""
    return f"{_HEADER_TAG} {spec.arch_string()} {spec.degree} {spec.kind.value}\n".encode()


def _layout(layers):
    """What a checkpoint header records of each layer: a KAN layer's widths,
    degree and kind, a LayerNorm's width."""
    return [(layer.input_dim, layer.output_dim, layer.degree, layer.kind)
            if isinstance(layer, ChebyKanLayer) else layer.dim for layer in layers]


def _checkpoint_tensors(layers):
    """Checkpoint order: a KAN layer's ``coeffs``, a LayerNorm's gamma then beta."""
    return [t for layer in layers for t in (
        (layer.coeffs,) if isinstance(layer, ChebyKanLayer) else (layer.gamma, layer.beta))]


def save_network(seq, spec, path):
    """One ASCII header line, then the parameters as little-endian f64.

    Header: ``chebykan-v1 <arch-string> <degree> <kind>``. The stream holds
    the tensors layer by layer (coefficients [input_dim, output_dim,
    degree+1] per KAN layer, gamma then beta per LayerNorm), each flattened
    row-major. A spec that does not describe seq's layers raises ValueError.
    The header stores no dtype: a float32 model is written, and reloads, as float64.
    """
    if _layout(seq.layers) != _layout(_layers(spec)):
        raise ValueError(f"network layers do not match spec {spec.arch_string()}")
    with open(path, "wb") as fh:
        fh.write(_header(spec))
        for t in _checkpoint_tensors(seq.layers):
            fh.write(t.astype("<f8").tobytes())


def load_network(path):
    """The (Sequential, ArchSpec) pair save_network wrote, rebuilt in float64
    (so a float32 model's outputs change). Any other header, a stream of the
    wrong length or a non-finite value raises ValueError naming the path."""
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    try:
        arch = header.partition(b" ")[2].split(b" ")[0].decode("ascii")
        widths, degree, kind, ln = (f.partition("=")[2] for f in arch.split(";"))
        spec = ArchSpec([int(w) for w in widths.split(",")], int(degree), PolyKind(kind),
                        bool(int(ln)))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: unreadable header {header[:100]!r}: {exc}") from None
    if header != _header(spec):
        raise ValueError(f"{path}: header {header[:100]!r} is not the one "
                         f"save_network writes for {spec.arch_string()}")
    n = param_count(spec)
    if len(blob) != 8 * n:
        raise ValueError(f"{path}: parameter stream holds {len(blob)} bytes, "
                         f"the header implies {8 * n}")
    flat = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: parameter stream holds non-finite values")
    seq = Sequential(_layers(spec))
    for t in _checkpoint_tensors(seq.layers):
        t[...] = flat[:t.size].reshape(t.shape)
        flat = flat[t.size:]
    return seq, spec
