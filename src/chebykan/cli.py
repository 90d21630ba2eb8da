"""Command-line front end: mnist, approx, fractal, ablate, gradcheck.

Every config key is also a flag, ``--`` plus the key with ``-`` for ``_``
(``--x``/``--no-x`` for a bool key). Flags merge over an optional
``key = value`` config file (flags win, unknown keys are rejected), and every
run echoes its fully resolved configuration as a leading #-comment block in
its output so the run can be reproduced exactly, and ends it with a
``# blas_threads`` line, since the BLAS thread count can change the last bits
of a result.
Each command returns its exit code and the lines of each output file; ``main``
alone names, checks and writes those files.
Each command's options come from what its run consumes: the fields of
``TrainConfig`` and ``FractalParams`` and the ``FUNCTION_FIT`` recipe.
Exit codes, which ``main`` maps from exception types: 0 success, 1 usage or
config error (any ValueError), 2 data error, 3 numerical failure.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .data import Dataset, FractalParams, IdxFormatError, grid_lines, load_mnist
from .experiments import (ABLATION_SWEEPS, FRACTAL_FIT_TRAINING, FUNCTION_FIT,
                          FUNCTION_FIT_TRAINING, DivergenceError, TrainConfig,
                          ablation_csv_lines, fit_fractal, fit_function,
                          grad_check, run_ablation, run_classifier)

GRADCHECK_TOL = 1e-5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


# ---------------------------------------------------------------------------
# value converters (shared by flags and config-file entries)

def _opt_int(s):
    v = str(s).strip().lower()
    if v in ("", "none"):
        return None
    return int(v)


def _bool(s):
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


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


def _field_conv(default):
    """The converter an option's default implies; a None default (max_steps)
    means an optional int, a tuple or list default the widths."""
    if isinstance(default, Enum):
        choose = _choice(*(m.value for m in type(default)))
        return lambda s: type(default)(choose(s))
    return {bool: _bool, int: int, float: float, str: str.strip, list: _widths,
            tuple: _widths, type(None): _opt_int}[type(default)]


@dataclass
class Opt:
    name: str              # dest and config-file key
    conv: object
    default: object
    help: str


def _out(default):
    # fsencode rejects a name the file system's encoding cannot hold
    return Opt("out", lambda s: os.fsdecode(os.fsencode(s.strip())), default, "output path")


_HELP = {"epochs": "training epochs", "batch_size": "minibatch size", "lr": "learning rate",
         "init": "coefficient initialization", "norm": "input normalization scheme",
         "degree": "polynomial degree", "kind": "polynomial kind", "widths": "layer widths",
         "target": "function to fit", "lo": "domain lower edge", "hi": "domain upper edge",
         "n": "training samples", "test_n": "test samples", "steps": "optimizer steps",
         "alpha": "noise persistence", "b": "noise amplitude", "iters": "noise iterations",
         "grid": "grid points per side", "extent": "half-width of the square domain",
         "optimizer": "adam or sgd", "layernorm": "LayerNorm between KAN layers",
         "max_steps": "cap on optimizer steps", "seed": "base RNG seed",
         "f32": "build the model in float32"}


def _opts(defaults, skip=()):
    """One option per `name -> default` entry but those in `skip`, its
    converter implied by the default."""
    return [Opt(name, _field_conv(d), d, _HELP[name])
            for name, d in defaults.items() if name not in skip]


_TRAINING = vars(TrainConfig())
_MNIST_DATA_OPTS = [
    Opt("data_dir", str.strip, None, "directory with the four decompressed IDX files"),
    Opt("subset", _opt_int, None, "train on the first N examples only"),
]

MNIST_OPTS = [_out("mnist_run.csv")] + _MNIST_DATA_OPTS + _opts(_TRAINING)

# the function and fractal fits use raw inputs, so they take no norm; approx's
# steps sets both epochs and max_steps
APPROX_OPTS = ([_out("approx_dump.csv")] + _opts(FUNCTION_FIT)
               + _opts({**_TRAINING, **FUNCTION_FIT_TRAINING},
                       skip=("epochs", "norm", "max_steps")))

# FractalParams' seed is the training seed
FRACTAL_OPTS = ([_out("fractal.csv")] + _opts(vars(FractalParams()), skip=("seed",))
                + _opts({**_TRAINING, **FRACTAL_FIT_TRAINING}, skip=("norm",)))

ABLATE_OPTS = ([_out("ablation.csv"),
                Opt("axis", _choice(*ABLATION_SWEEPS), None, "which axis to sweep")]
               + _MNIST_DATA_OPTS + _opts(_TRAINING))

GRADCHECK_OPTS = [_out(None), Opt("seed", int, 42, _HELP["seed"]),
                  Opt("trials", int, 100, "random configurations to test"),
                  Opt("h", float, 1e-40, "complex-step size")]


# ---------------------------------------------------------------------------
# config file + merge

def parse_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot read config file {path}: {e}")
    values, first = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in first:
            raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {first[key]}")
        first[key] = lineno
        values[key] = value
    return values


def resolve(command, opts, args):
    """Defaults, overlaid by the config file, overlaid by explicit flags; the
    keys follow the options' order."""
    raw = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:  # an empty path reads as "." and fails
        known = {o.name for o in opts}
        for key, value in parse_config_file(config_path).items():
            if key not in known:
                raise ValueError(
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
                raise ValueError(f"bad value for {o.name}: {e}")
        else:
            resolved[o.name] = o.default
    return resolved


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def config_lines(command, resolved):
    """The resolved run configuration, one 'key = value' line per option set."""
    return [f"command = {command}"] + [f"{k} = {_fmt(v)}" for k, v in resolved.items()
                                       if v is not None]


def _train_config(resolved):
    """The run's TrainConfig, validated (architecture included) before any
    data is read or step taken."""
    names = {f.name for f in fields(TrainConfig)}
    cfg = TrainConfig(**{k: v for k, v in resolved.items() if k in names})
    cfg.validate()
    cfg.arch().validate()
    return cfg


def _blas_threads_line():
    """The BLAS thread variables as a trailing comment: a threaded BLAS can
    change an output's last bits, so a diff across machines names its cause."""
    return "# blas_threads " + " ".join(f"{v}={os.environ.get(v, 'unset')}"
                                        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


# ---------------------------------------------------------------------------
# commands: each returns (exit code, one list of lines per output file)

def _outputs(command, out):
    """The files the run writes, named from `out`: fractal's `_true` and
    `_pred` grids beside it, none for gradcheck without --out. Rejects, naming
    `out`, any the run could not write, before any data is read or step taken."""
    if out is None:
        return []
    if out.endswith(os.sep) or not Path(out).name:  # "", "." or "dir/"
        raise ValueError(f"bad value for out: {out!r} names no file")
    paths = [out]  # as given, so `wrote` echoes it verbatim
    if command == "fractal":
        base = Path(out)
        paths = [str(base.with_name(base.stem + tag + (base.suffix or ".csv")))
                 for tag in ("_true", "_pred")]
    for p in map(Path, paths):
        if p.is_dir():
            raise ValueError(f"bad value for out: {p} is a directory")
        if not p.parent.is_dir():
            raise ValueError(f"bad value for out: {p.parent} is not a directory")
    return paths


def cmd_mnist(resolved):
    record = run_classifier(_train_config(resolved),
                            *load_mnist(resolved["data_dir"], resolved["subset"]))
    print(f"final test accuracy: {record.final_metric!r}")
    return 0, [record.csv_lines()]


def cmd_approx(resolved):
    cfg = _train_config(resolved)
    record, model, test_ds = fit_function(
        cfg, "approx", **{k: resolved[k] for k in FUNCTION_FIT})

    order = np.argsort(test_ds.features[:, 0])
    xs = test_ds.features[order]
    model.eval()
    pred = model.forward(xs)
    rows = [f"{float(x)!r},{float(t)!r},{float(p)!r}"
            for x, t, p in zip(xs[:, 0], test_ds.targets[order][:, 0], pred[:, 0])]
    print(f"final test MSE: {record.final_metric!r}")
    return 0, [["x,y_true,y_pred"] + rows]


def cmd_fractal(resolved):
    params = FractalParams(**{f.name: resolved[f.name] for f in fields(FractalParams)})
    initial_mse, record, model, ds = fit_fractal(_train_config(resolved), params)
    model.eval()
    pred_ds = Dataset(features=ds.features, targets=model.forward(ds.features))

    final_mse = record.final_metric
    ratio = final_mse / initial_mse if initial_mse > 0 else float("nan")
    print(f"initial MSE: {initial_mse!r}")
    print(f"final MSE:   {final_mse!r}  (ratio {ratio!r})")
    return 0, [grid_lines(ds), grid_lines(pred_ds)]


def cmd_ablate(resolved):
    axis = resolved["axis"]
    if axis is None:
        raise ValueError("--axis is required (init, degree, norm, or kind)")
    cfg = _train_config(resolved)
    if resolved[axis] != _TRAINING[axis]:  # the sweep would overwrite it
        raise ValueError(f"--axis {axis} sweeps {axis}, so {axis} must keep its default "
                         f"{_fmt(_TRAINING[axis])}; got {_fmt(resolved[axis])}")
    rows = run_ablation(axis, cfg, *load_mnist(resolved["data_dir"], resolved["subset"]))
    for r in rows:
        print(f"{r.axis_value}: accuracy {r.test_accuracy!r}, loss {r.test_loss!r}, "
              f"{r.param_count} params")
    return 0, [ablation_csv_lines(rows)]


def cmd_gradcheck(resolved):
    err = grad_check(trials=resolved["trials"], h=resolved["h"], seed=resolved["seed"])
    for c in config_lines("gradcheck", resolved):
        print(f"# {c}")
    print(f"max_rel_err = {err!r}")
    passed = err <= GRADCHECK_TOL  # a NaN error fails too
    if not passed:
        print(f"FAIL: max relative error {err!r} exceeds {GRADCHECK_TOL}",
              file=sys.stderr)
    return 0 if passed else 3, [["max_rel_err", repr(err)]]


COMMANDS = {
    "mnist": ("train the digit classifier on MNIST IDX files", MNIST_OPTS, cmd_mnist),
    "approx": ("fit a 1-D target function and dump x,y_true,y_pred", APPROX_OPTS, cmd_approx),
    "fractal": ("fit the noisy radial surface and dump true/predicted grids",
                FRACTAL_OPTS, cmd_fractal),
    "ablate": ("sweep one axis (init, degree, norm, kind) on the classifier",
               ABLATE_OPTS, cmd_ablate),
    "gradcheck": ("complex-step audit of the backward pass", GRADCHECK_OPTS,
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
            form = (dict(action=argparse.BooleanOptionalAction) if isinstance(o.default, bool)
                    else dict(metavar=o.name.upper()))
            p.add_argument("--" + o.name.replace("_", "-"), dest=o.name, default=None,
                           help=o.help, **form)
    return root


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        helptext, opts, handler = COMMANDS[args.command]
        resolved = resolve(args.command, opts, args)
        paths = _outputs(args.command, resolved["out"])
        code, bodies = handler(resolved)
        echo = [f"# {c}" for c in config_lines(args.command, resolved)]
        for path, lines in zip(paths, bodies):
            try:
                # surrogateescape, so the echoed out path keeps its own bytes
                Path(path).write_text("\n".join(echo + lines + [_blas_threads_line()]) + "\n",
                                      encoding="utf-8", errors="surrogateescape")
            except OSError as e:  # a full disk, say, which _outputs cannot foresee
                raise ValueError(f"cannot write {path}: {e}")
        if paths:
            print(f"wrote {' and '.join(paths)}")
        return code
    except (IdxFormatError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # after IdxFormatError, which is a ValueError too
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
