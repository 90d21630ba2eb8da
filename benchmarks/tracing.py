"""Spans around the package's entry points, installed from outside ``src/``.

Only the traced run's process calls ``Tracer.install``. Each wrapper passes its
arguments through untouched and records one span per call: a key, its
duration, and the time its child spans covered, so a key's self time is its
duration minus its children. Spans are aggregated per key in memory as they
close. A target that no longer exists (renamed or removed by a refactor) is
skipped with a warning, and the per-layer metrics that need it are reported
missing instead of failing the run.
"""

import importlib
import sys
import time
import weakref
from dataclasses import dataclass

from chebykan.layers import ChebyKanLayer, LayerNorm

_F8 = 8  # bytes per float64 value


@dataclass
class KeyStats:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    flops: float = 0.0
    bytes: float = 0.0


def kan_forward_work(layer, batch):
    """Computed (not counted) flops and bytes of one ChebyKanLayer.forward.

    tanh counts one flop per element, the recurrence three per element and
    degree above 1, the contraction 2*B*I*(n+1)*O. Bytes are the float64
    values that must move at least once: x, the basis written and read back,
    the coefficients and y.
    """
    b, i, o, n = batch, layer.input_dim, layer.output_dim, layer.degree
    flops = 2 * b * i * (n + 1) * o + 3 * b * i * max(n - 1, 0) + b * i
    values = b * i + 2 * b * i * (n + 1) + i * o * (n + 1) + b * o
    return flops, values * _F8


def kan_backward_work(layer, batch):
    """Computed flops and bytes of one first-kind ChebyKanLayer.backward.

    Two contractions of 2*B*I*(n+1)*O each (coefficient gradient and the
    basis-space cotangent), the derivative recurrence, its product with the
    cotangent and the tanh chain rule. Bytes: the cached basis, dL/dy, the
    coefficients and their gradient, the derivative stack and cotangent
    written and read back, and x_t and dL/dx.
    """
    b, i, o, n = batch, layer.input_dim, layer.output_dim, layer.degree
    per_elem = 3 * max(n - 2, 0) + n + 2 * (n + 1) + 3
    flops = 4 * b * i * (n + 1) * o + b * i * per_elem
    values = b * i * (n + 1) + b * o + 2 * i * o * (n + 1) + 4 * b * i * (n + 1) + 2 * b * i
    return flops, values * _F8


class Tracer:
    """Wraps named attributes with span recorders; ``uninstall`` restores them."""

    def __init__(self):
        self.stats = {}
        self.missing = []
        self.labels = weakref.WeakKeyDictionary()
        self.shapes = {}  # label -> "INxOUT" of the layers last labelled
        self._open = []  # [key, child seconds] of every span still running
        self._patched = []

    def parent_key(self):
        return self._open[-1][0] if self._open else None

    def label(self, layer):
        """Position label (kan0, ln1, ...) that ``build`` assigned, else the shape."""
        try:
            return self.labels[layer]
        except (KeyError, TypeError):
            dims = (getattr(layer, "input_dim", "?"), getattr(layer, "output_dim", "?"))
            return f"{dims[0]}x{dims[1]}"

    def label_layers(self, seq):
        counts = {}
        for layer in getattr(seq, "layers", ()):
            prefix = {ChebyKanLayer: "kan", LayerNorm: "ln"}.get(type(layer))
            if prefix is not None:
                k = counts.get(prefix, 0)
                counts[prefix] = k + 1
                self.labels[layer] = f"{prefix}{k}"
                self.shapes[f"{prefix}{k}"] = (str(layer.dim) if prefix == "ln" else
                                               f"{layer.input_dim}x{layer.output_dim}")

    def _resolve(self, module_name, qualname):
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            return None

    def wrap(self, module_name, qualname, keyfn, work=None, after=None):
        """Record a span per call of ``module_name.qualname``.

        ``keyfn(args)`` names the span when it opens, ``work(args)`` returns
        (flops, bytes) computed for the call, ``after(result)`` sees the result.
        """
        target = f"{module_name}.{qualname}"
        found = self._resolve(module_name, qualname)
        if found is None or not callable(found[2]):
            print(f"warning: trace target {target} not found; its metrics are missing",
                  file=sys.stderr)
            self.missing.append(target)
            return
        owner, attr, orig = found
        stats, open_spans = self.stats, self._open

        def traced(*args, **kwargs):
            key = keyfn(args)
            open_spans.append([key, 0.0])
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += dt
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = KeyStats()
                rec.total_s += dt
                rec.self_s += dt - child
                rec.calls += 1
                if work is not None:
                    flops, nbytes = work(args)
                    rec.flops += flops
                    rec.bytes += nbytes
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def install(self):
        """Wrap every entry point the per-layer metrics are built from."""
        mode = lambda args: "train" if args[0].training else "eval"
        kan = lambda args: f"layers.ChebyKanLayer.{self.label(args[0])}"
        ln = lambda args: f"layers.LayerNorm.{self.label(args[0])}"
        rows = lambda args: len(args[1])
        self.wrap("chebykan.layers", "ChebyKanLayer.forward",
                  lambda a: f"{kan(a)}.forward.{mode(a)}",
                  work=lambda a: kan_forward_work(a[0], rows(a)))
        self.wrap("chebykan.layers", "ChebyKanLayer.backward",
                  lambda a: f"{kan(a)}.backward",
                  work=lambda a: kan_backward_work(a[0], rows(a)))
        self.wrap("chebykan.layers", "LayerNorm.forward", lambda a: f"{ln(a)}.forward")
        self.wrap("chebykan.layers", "LayerNorm.backward", lambda a: f"{ln(a)}.backward")
        self.wrap("chebykan.network", "Sequential.forward",
                  lambda a: f"network.Sequential.forward.{mode(a)}")
        self.wrap("chebykan.network", "Sequential.backward",
                  lambda a: "network.Sequential.backward")
        self.wrap("chebykan.network", "build", lambda a: "network.build",
                  after=self.label_layers)
        self.wrap("chebykan.network", "load_network", lambda a: "network.load_network")
        self.wrap("chebykan.optim", "Adam.step", lambda a: "optim.Adam.step")
        # train() looks the loss up in the experiments namespace
        self.wrap("chebykan.experiments", "softmax_cross_entropy", lambda a: "optim.loss")
        self.wrap("chebykan.experiments", "train", lambda a: "experiments.train")
        self.wrap("chebykan.experiments", "evaluate", lambda a: "experiments.evaluate")
        self.wrap("chebykan.experiments", "_loss_and_metric",
                  lambda a: ("experiments.train.epoch_eval"
                             if self.parent_key() == "experiments.train"
                             else "experiments.loss_and_metric"))
        for name in ("load_mnist_idx", "apply_norm"):
            self.wrap("chebykan.data", name, lambda a, name=name: f"data.{name}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


KAN_POSITIONS = ("kan0", "kan1", "kan2")
LN_POSITIONS = ("ln0", "ln1")

_KAN_FWD = "chebykan.layers.ChebyKanLayer.forward"
_KAN_BWD = "chebykan.layers.ChebyKanLayer.backward"


def per_layer_metrics(tracer, traced_wall_s, untraced_wall_s, overhead):
    """Per-layer metrics from the tracer's spans, keyed by metric name.

    A layer that a workload never calls reads 0; a metric whose wrap target
    is missing is left out with a warning.
    """
    stats = lambda key: tracer.stats.get(key, KeyStats())
    metrics = {}

    def put(name, unit, needs, value):
        lost = [t for t in needs if t in tracer.missing]
        if lost:
            print(f"warning: per-layer metric {name} missing ({', '.join(lost)} not traced)",
                  file=sys.stderr)
            return
        metrics[name] = {"value": value, "unit": unit}

    def rate(work, seconds):
        return work / seconds / 1e9 if seconds > 0 else 0.0

    def per_call(rec):
        return rec.total_s / rec.calls if rec.calls else 0.0

    for pos in KAN_POSITIONS:
        base = f"layers.ChebyKanLayer.{pos}"
        fwd_train, fwd_eval = stats(f"{base}.forward.train"), stats(f"{base}.forward.eval")
        bwd = stats(f"{base}.backward")
        fwd_s = fwd_train.total_s + fwd_eval.total_s
        fwd_flops, fwd_bytes = fwd_train.flops + fwd_eval.flops, fwd_train.bytes + fwd_eval.bytes
        put(f"{base}.forward.train_s", "s", [_KAN_FWD], fwd_train.total_s)
        put(f"{base}.forward.eval_s", "s", [_KAN_FWD], fwd_eval.total_s)
        put(f"{base}.forward.calls", "count", [_KAN_FWD], fwd_train.calls + fwd_eval.calls)
        put(f"{base}.forward.flops_computed", "flop", [_KAN_FWD], fwd_flops)
        put(f"{base}.forward.bytes_computed", "B", [_KAN_FWD], fwd_bytes)
        put(f"{base}.forward.gflops", "Gflop/s", [_KAN_FWD], rate(fwd_flops, fwd_s))
        put(f"{base}.backward_s", "s", [_KAN_BWD], bwd.total_s)
        put(f"{base}.backward.calls", "count", [_KAN_BWD], bwd.calls)
        put(f"{base}.backward.flops_computed", "flop", [_KAN_BWD], bwd.flops)
        put(f"{base}.backward.bytes_computed", "B", [_KAN_BWD], bwd.bytes)
        put(f"{base}.backward.gflops", "Gflop/s", [_KAN_BWD], rate(bwd.flops, bwd.total_s))
        fwd_per_call = per_call(fwd_train)
        put(f"{base}.backward_over_forward", "ratio", [_KAN_FWD, _KAN_BWD],
            per_call(bwd) / fwd_per_call if fwd_per_call else 0.0)
        put(f"{base}.share", "fraction", [_KAN_FWD, _KAN_BWD],
            (fwd_s + bwd.total_s) / traced_wall_s)
    for pos in LN_POSITIONS:
        for method in ("forward", "backward"):
            put(f"layers.LayerNorm.{pos}.{method}_s", "s",
                [f"chebykan.layers.LayerNorm.{method}"],
                stats(f"layers.LayerNorm.{pos}.{method}").total_s)
    adam = stats("optim.Adam.step")
    put("optim.Adam.step_s", "s", ["chebykan.optim.Adam.step"], adam.total_s)
    put("optim.Adam.step.calls", "count", ["chebykan.optim.Adam.step"], adam.calls)
    put("optim.loss_s", "s", ["chebykan.experiments.softmax_cross_entropy"],
        stats("optim.loss").total_s)
    train = stats("experiments.train")
    put("experiments.train_s", "s", ["chebykan.experiments.train"], train.total_s)
    put("experiments.train.self_s", "s", ["chebykan.experiments.train"], train.self_s)
    put("experiments.train.epoch_eval_s", "s",
        ["chebykan.experiments.train", "chebykan.experiments._loss_and_metric"],
        stats("experiments.train.epoch_eval").total_s)
    for name in ("data.load_mnist_idx", "data.apply_norm", "network.build",
                 "network.load_network", "experiments.evaluate"):
        put(f"{name}_s", "s", [f"chebykan.{name}"], stats(name).total_s)
    for mode in ("train", "eval"):
        put(f"network.Sequential.forward.{mode}.self_s", "s",
            ["chebykan.network.Sequential.forward"],
            stats(f"network.Sequential.forward.{mode}").self_s)
    put("network.Sequential.backward.self_s", "s", ["chebykan.network.Sequential.backward"],
        stats("network.Sequential.backward").self_s)
    put("trace.untraced_wall_s", "s", [], untraced_wall_s)
    put("trace.traced_wall_s", "s", [], traced_wall_s)
    put("trace.overhead_frac", "fraction", [], overhead)
    return metrics
