"""Command-line front end: mnist, approx, fractal, ablate, gradcheck.

Flags merge over an optional ``key = value`` config file (flags win, unknown
keys are rejected), and every run echoes its fully resolved configuration as
a leading #-comment block in its output so the run can be reproduced exactly.
Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numerical
failure.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chebyshev import PolyKind
from .data import (TARGETS, TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES,
                   TRAIN_LABELS, Dataset, FractalParams, IdxFormatError,
                   NormScheme, apply_norm, dump_grid, fractal_grid,
                   load_mnist_idx, sample_function)
from .experiments import (DivergenceError, TrainConfig, evaluate, grad_check,
                          run_ablation, train, write_ablation_csv,
                          write_run_csv)
from .layers import InitMethod
from .ndcore import Rng
from .network import MNIST_WIDTHS, build

GRADCHECK_TOL = 1e-5


class UsageError(Exception):
    """Bad flags or config file; exit code 1."""


class DataError(Exception):
    """Missing or malformed input data; exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# value converters (shared by flags and config-file entries)

def _int(s):
    return int(str(s).strip())


def _opt_int(s):
    v = str(s).strip().lower()
    if v in ("", "none"):
        return None
    return int(v)


def _float(s):
    return float(str(s).strip())


def _bool(s):
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _str(s):
    return str(s).strip()


def _widths(s):
    parts = [p.strip() for p in str(s).split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError(f"widths must be comma-separated integers, got {s!r}")
    return [int(p) for p in parts]


def _choice(*allowed):
    def conv(s):
        v = str(s).strip()
        if v not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}; got {v!r}")
        return v
    return conv


_INITS = tuple(m.value for m in InitMethod)
_NORMS = tuple(s.value for s in NormScheme)
_KINDS = tuple(k.value for k in PolyKind)
_TARGET_NAMES = tuple(sorted(TARGETS))


@dataclass
class Opt:
    name: str              # dest and config-file key
    conv: object
    default: object
    help: str = ""
    flag: object = True    # True: value flag, "switch": bare flag, False: config-only
    cli: str = None        # flag spelling override


def _shared_opts(out_default, f32=True):
    opts = [
        Opt("seed", _int, 42, "base RNG seed"),
        Opt("out", _str, out_default, "output path"),
    ]
    if f32:
        opts.append(Opt("f32", _bool, False, "run in float32", flag="switch"))
    return opts


_TRAIN_ONLY = [
    Opt("optimizer", _choice("adam", "sgd"), "adam", flag=False),
    Opt("momentum", _float, 0.9, flag=False),
    Opt("layernorm", _bool, True, flag=False),
    Opt("max_steps", _opt_int, None, flag=False),
]

MNIST_OPTS = _shared_opts("mnist_run.csv") + [
    Opt("data_dir", _str, None, "directory with the four decompressed IDX files"),
    Opt("subset", _opt_int, None, "train on the first N examples only"),
    Opt("degree", _int, 3, "polynomial degree"),
    Opt("kind", _choice(*_KINDS), "first", "polynomial kind"),
    Opt("init", _choice(*_INITS), "xavier", "coefficient initialization"),
    Opt("norm", _choice(*_NORMS), "tanh", "input normalization scheme"),
    Opt("epochs", _int, 10, "training epochs"),
    Opt("batch_size", _int, 64, "minibatch size", cli="--batch"),
    Opt("lr", _float, 1e-3, "learning rate"),
    Opt("widths", _widths, list(MNIST_WIDTHS), flag=False),
] + _TRAIN_ONLY

APPROX_OPTS = _shared_opts("approx_dump.csv") + [
    Opt("target", _choice(*_TARGET_NAMES), "sin_plus_sq", "function to fit"),
    Opt("lo", _float, -2.0, "domain lower edge"),
    Opt("hi", _float, 2.0, "domain upper edge"),
    Opt("n", _int, 2000, "training samples"),
    Opt("test_n", _int, 500, "test samples"),
    Opt("widths", _widths, [1, 8, 1], "layer widths"),
    Opt("degree", _int, 4, "polynomial degree"),
    Opt("steps", _int, 2000, "optimizer steps"),
    Opt("kind", _choice(*_KINDS), "first", flag=False),
    Opt("init", _choice(*_INITS), "xavier", flag=False),
    Opt("batch_size", _int, 64, flag=False),
    Opt("lr", _float, 1e-2, flag=False),
    Opt("norm", _choice(*_NORMS), "tanh", flag=False),
] + _TRAIN_ONLY

FRACTAL_OPTS = _shared_opts("fractal.csv") + [
    Opt("alpha", _float, 0.7, "noise persistence"),
    Opt("b", _float, 0.001, "noise amplitude"),
    Opt("iters", _int, 5, "noise iterations"),
    Opt("grid", _int, 64, "grid points per side"),
    Opt("extent", _float, 2.0, "half-width of the square domain"),
    Opt("widths", _widths, [2, 64, 64, 1], "layer widths"),
    Opt("degree", _int, 3, "polynomial degree"),
    Opt("kind", _choice(*_KINDS), "first", flag=False),
    Opt("init", _choice(*_INITS), "xavier", flag=False),
    Opt("epochs", _int, 60, flag=False),
    Opt("batch_size", _int, 64, flag=False),
    Opt("lr", _float, 1e-2, flag=False),
    Opt("norm", _choice(*_NORMS), "tanh", flag=False),
] + _TRAIN_ONLY

ABLATE_OPTS = _shared_opts("ablation.csv") + [
    Opt("axis", _choice("init", "degree", "norm", "kind"), None,
        "which axis to sweep"),
    Opt("data_dir", _str, None, "directory with the four decompressed IDX files"),
    Opt("subset", _opt_int, None, "train on the first N examples only"),
    Opt("degree", _int, 3, "base polynomial degree"),
    Opt("kind", _choice(*_KINDS), "first", "base polynomial kind"),
    Opt("init", _choice(*_INITS), "xavier", "base initialization"),
    Opt("norm", _choice(*_NORMS), "tanh", "base normalization"),
    Opt("epochs", _int, 10, "training epochs"),
    Opt("batch_size", _int, 64, "minibatch size", cli="--batch"),
    Opt("lr", _float, 1e-3, "learning rate"),
    Opt("widths", _widths, list(MNIST_WIDTHS), flag=False),
] + _TRAIN_ONLY

GRADCHECK_OPTS = _shared_opts(None, f32=False) + [
    Opt("trials", _int, 100, "random configurations to test"),
    Opt("h", _float, 1e-6, "finite-difference step"),
]


# ---------------------------------------------------------------------------
# config file + merge

def parse_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}")
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve(command, opts, args):
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    raw = {}
    config_path = getattr(args, "config", None)
    if config_path:
        known = {o.name for o in opts}
        for key, value in parse_config_file(config_path).items():
            if key not in known:
                raise UsageError(
                    f"unknown config key {key!r} for command {command}; "
                    f"valid keys: {', '.join(sorted(known))}"
                )
            raw[key] = value
    for o in opts:
        v = getattr(args, o.name, None)
        if v is not None:
            raw[o.name] = v
    resolved = {}
    for o in opts:
        if o.name in raw:
            try:
                resolved[o.name] = o.conv(raw[o.name])
            except ValueError as e:
                raise UsageError(f"bad value for {o.name}: {e}")
        else:
            resolved[o.name] = o.default
    return resolved


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def config_lines(command, opts, resolved):
    """The resolved run configuration, one 'key = value' line per option."""
    lines = [f"command = {command}"]
    for o in opts:
        v = resolved[o.name]
        if v is None:
            continue
        lines.append(f"{o.name} = {_fmt(v)}")
    return lines


def _train_config(resolved):
    kwargs = {}
    for key in ("epochs", "batch_size", "lr", "optimizer", "seed", "degree",
                "layernorm", "momentum", "max_steps"):
        if key in resolved:
            kwargs[key] = resolved[key]
    if "init" in resolved:
        kwargs["init"] = InitMethod(resolved["init"])
    if "norm" in resolved:
        kwargs["norm"] = NormScheme(resolved["norm"])
    if "kind" in resolved:
        kwargs["kind"] = PolyKind(resolved["kind"])
    if "widths" in resolved:
        kwargs["widths"] = list(resolved["widths"])
    if resolved.get("f32"):
        kwargs["dtype"] = np.float32
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# data plumbing

def _mnist_dir(resolved):
    d = resolved.get("data_dir")
    if d is None:
        d = os.environ.get("CHEBYKAN_MNIST_DIR", "data/mnist")
    return Path(d)


def _load_mnist(dirpath):
    paths = {name: dirpath / name for name in
             (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)}
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise DataError("missing MNIST files: " + ", ".join(missing))
    train_raw = load_mnist_idx(paths[TRAIN_IMAGES], paths[TRAIN_LABELS])
    test_raw = load_mnist_idx(paths[TEST_IMAGES], paths[TEST_LABELS])
    return train_raw, test_raw


def _take_subset(ds, subset):
    if subset is None:
        return ds
    if subset < 1:
        raise UsageError(f"subset must be >= 1, got {subset}")
    return Dataset(features=ds.features[:subset], labels=ds.labels[:subset])


# ---------------------------------------------------------------------------
# commands

def cmd_mnist(resolved, comments):
    train_raw, test_raw = _load_mnist(_mnist_dir(resolved))
    train_raw = _take_subset(train_raw, resolved["subset"])
    cfg = _train_config(resolved)
    scheme = NormScheme(resolved["norm"])
    tr = apply_norm(train_raw, scheme)
    te = apply_norm(test_raw, scheme, stats=tr.norm)
    model = build(cfg.arch(), cfg.init, Rng(cfg.seed, "init"), cfg.dtype)
    record = train(model, tr, te, cfg)
    write_run_csv(record, resolved["out"], comments=comments)
    print(f"final test accuracy: {record.final_metric!r}")
    print(f"wrote {resolved['out']}")
    return 0


def cmd_approx(resolved, comments):
    if resolved["n"] < 1:
        raise UsageError(f"need at least one training sample, got n={resolved['n']}")
    if resolved["test_n"] < 1:
        raise UsageError(f"need at least one test sample, got test_n={resolved['test_n']}")
    rng = Rng(resolved["seed"], "approx")
    train_ds = sample_function(resolved["target"], resolved["lo"], resolved["hi"],
                               resolved["n"], rng.substream("train"))
    test_ds = sample_function(resolved["target"], resolved["lo"], resolved["hi"],
                              resolved["test_n"], rng.substream("test"))
    cfg = _train_config(resolved)
    # one optimizer step per epoch at minimum, so `steps` epochs always suffice
    cfg.epochs = resolved["steps"]
    cfg.max_steps = resolved["steps"]
    model = build(cfg.arch(), cfg.init, Rng(cfg.seed, "init"), cfg.dtype)
    record = train(model, train_ds, test_ds, cfg)

    order = np.argsort(test_ds.features[:, 0])
    xs = test_ds.features[order]
    model.eval()
    pred = model.forward(xs)
    lines = [f"# {c}" for c in comments]
    lines.append("x,y_true,y_pred")
    for x, t, p in zip(xs[:, 0], test_ds.targets[order][:, 0], pred[:, 0]):
        lines.append(f"{float(x)!r},{float(t)!r},{float(p)!r}")
    Path(resolved["out"]).write_text("\n".join(lines) + "\n")
    print(f"final test MSE: {record.final_metric!r}")
    print(f"wrote {resolved['out']}")
    return 0


def _fractal_paths(out):
    base = Path(out)
    suffix = base.suffix or ".csv"
    true_path = base.with_name(base.stem + "_true" + suffix)
    pred_path = base.with_name(base.stem + "_pred" + suffix)
    return true_path, pred_path


def cmd_fractal(resolved, comments):
    params = FractalParams(alpha=resolved["alpha"], b=resolved["b"],
                           iters=resolved["iters"], grid=resolved["grid"],
                           extent=resolved["extent"], seed=resolved["seed"])
    try:
        ds = fractal_grid(params)
    except ValueError as e:
        raise UsageError(str(e))
    cfg = _train_config(resolved)
    model = build(cfg.arch(), cfg.init, Rng(cfg.seed, "init"), cfg.dtype)
    initial_mse = evaluate(model, ds, "regress")
    record = train(model, ds, ds, cfg)
    final_mse = record.rows[-1].test_loss

    header = [f"# {c}" for c in comments]
    true_path, pred_path = _fractal_paths(resolved["out"])
    dump_grid(ds, true_path, header_comments=header)
    model.eval()
    pred_ds = Dataset(features=ds.features, targets=model.forward(ds.features))
    dump_grid(pred_ds, pred_path, header_comments=header)

    ratio = final_mse / initial_mse if initial_mse > 0 else float("nan")
    print(f"initial MSE: {initial_mse!r}")
    print(f"final MSE:   {final_mse!r}  (ratio {ratio!r})")
    print(f"wrote {true_path} and {pred_path}")
    return 0


def cmd_ablate(resolved, comments):
    if resolved["axis"] is None:
        raise UsageError("--axis is required (init, degree, norm, or kind)")
    train_raw, test_raw = _load_mnist(_mnist_dir(resolved))
    train_raw = _take_subset(train_raw, resolved["subset"])
    base_cfg = _train_config(resolved)
    rows, _ = run_ablation(resolved["axis"], base_cfg, train_raw, test_raw)
    write_ablation_csv(rows, resolved["out"], comments=comments)
    for r in rows:
        print(f"{r.axis_value}: accuracy {r.test_accuracy!r}, loss {r.test_loss!r}, "
              f"{r.param_count} params")
    print(f"wrote {resolved['out']}")
    return 0


def cmd_gradcheck(resolved, comments):
    err = grad_check(trials=resolved["trials"], h=resolved["h"],
                     seed=resolved["seed"])
    for c in comments:
        print(f"# {c}")
    print(f"max_rel_err = {err!r}")
    if resolved["out"]:
        lines = [f"# {c}" for c in comments]
        lines.append("max_rel_err")
        lines.append(repr(err))
        Path(resolved["out"]).write_text("\n".join(lines) + "\n")
        print(f"wrote {resolved['out']}")
    if err > GRADCHECK_TOL:
        print(f"FAIL: max relative error {err!r} exceeds {GRADCHECK_TOL}",
              file=sys.stderr)
        return 3
    return 0


COMMANDS = {
    "mnist": ("train the digit classifier on MNIST IDX files", MNIST_OPTS, cmd_mnist),
    "approx": ("fit a 1-D target function and dump x,y_true,y_pred", APPROX_OPTS, cmd_approx),
    "fractal": ("fit the noisy radial surface and dump true/predicted grids",
                FRACTAL_OPTS, cmd_fractal),
    "ablate": ("sweep one axis (init, degree, norm, kind) on the classifier",
               ABLATE_OPTS, cmd_ablate),
    "gradcheck": ("finite-difference audit of the backward pass", GRADCHECK_OPTS,
                  cmd_gradcheck),
}


def build_parser():
    root = _Parser(prog="chebykan",
                   description="Chebyshev KAN experiments from the command line.")
    sub = root.add_subparsers(dest="command", metavar="command", required=True)
    for name, (helptext, opts, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key = value config file; explicit flags win")
        for o in opts:
            if o.flag is True:
                flag = o.cli or "--" + o.name.replace("_", "-")
                p.add_argument(flag, dest=o.name, default=None,
                               metavar=o.name.upper(), help=o.help)
            elif o.flag == "switch":
                p.add_argument("--" + o.name, dest=o.name, action="store_const",
                               const="true", default=None, help=o.help)
    return root


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        helptext, opts, handler = COMMANDS[args.command]
        resolved = resolve(args.command, opts, args)
        comments = config_lines(args.command, opts, resolved)
        return handler(resolved, comments)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, IdxFormatError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
