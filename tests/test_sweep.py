"""Seeded property sweep over the ChebyKanLayer: widths 1-5, degree 0-8, both
kinds, LayerNorm between layers or not, batch sizes 1, 3 and 7, drawn from the
package's own Rng.

It reaches the corners grad_check never draws (degrees 7-8, float32), so it
guards the closed-form input gradient ((k+s) P_{k-1} - k x P_k) everywhere,
against the complex step of `_directional_check` along unit directions, the
check grad_check also runs.
It also round-trips every swept architecture through a checkpoint, and feeds
fuzzed checkpoints and IDX files to the loaders, which must reject each one
with their documented error, and hostile config values to the CLI, which
must end each run in a documented exit code, and malformed splits to
`train` and `evaluate`, which must reject each one with a ValueError naming
the field or `widths`, and malformed settings to every constructor and
function that takes one, which must reject each with a ValueError naming it.
"""

import dataclasses
import re
import shutil

import numpy as np
import pytest

from chebykan import cli
from chebykan.chebyshev import (PolyKind, eval_basis, eval_basis_derivative, extrema,
                                gauss_chebyshev, orthogonality_integral, roots)
from chebykan.data import (IMAGES_MAGIC, LABELS_MAGIC, TRAIN_IMAGES, TRAIN_LABELS, Dataset,
                           FractalParams, IdxFormatError, fractal_grid, idx_header_bytes,
                           load_mnist, load_mnist_idx, sample_function, write_idx)
from chebykan.experiments import (TrainConfig, _directional_check, _unit_directions,
                                  evaluate, fit_function, grad_check, run_ablation, train)
from chebykan.layers import ChebyKanLayer, InitMethod, LayerNorm
from chebykan.ndcore import Rng
from chebykan.network import ArchSpec, build, load_network, param_count, save_network

KINDS = (PolyKind.FIRST, PolyKind.SECOND)
H = 1e-6


def _cases():
    """One case per (degree, kind, repeat): widths, LayerNorm, batch, input,
    loss weights. LayerNorm comes from its own substream, so drawing it shifts
    none of the other draws."""
    root = Rng(2024, "sweep")
    for degree in range(9):
        for kind in KINDS:
            for rep in range(2):
                r = root.substream(f"{degree}/{kind.value}/{rep}")
                widths = [r.integers(1, 6) for _ in range(r.integers(2, 4))]
                batch = (1, 3, 7)[r.integers(0, 3)]
                x = r.uniform(-2.0, 2.0, (batch, widths[0]))
                w = r.uniform(-1.0, 1.0, (batch, widths[-1]))
                ln = r.substream("ln").integers(0, 2) == 1
                yield widths, degree, kind, ln, x, w, r.substream("init")


CASES = list(_cases())


def _model(widths, degree, kind, ln, rng, dtype):
    spec = ArchSpec(widths=widths, degree=degree, kind=kind, layernorm_between=ln)
    return build(spec, InitMethod.LECUN, rng, dtype)


def _grads(model, x, w):
    """dL/dparams and dL/dx of L = sum(w * y)."""
    model.train()
    model.forward(x)
    dLdx = model.backward(w)
    return model.flat_grads.copy(), dLdx


def test_forward_equals_einsum_over_eval_basis():
    for widths, degree, kind, _, x, _, init in CASES:
        layer = _model(widths[:2], degree, kind, False, init, np.float64).layers[0]
        basis = np.array([[eval_basis(v, degree, kind) for v in row] for row in np.tanh(x)])
        expect = np.einsum("bij,ioj->bo", basis, layer.coeffs)
        np.testing.assert_allclose(layer.forward(x), expect, rtol=1e-12, atol=1e-12)


def test_float64_gradients_match_complex_step():
    for widths, degree, kind, ln, x, w, init in CASES:
        model = _model(widths, degree, kind, ln, init, np.float64)
        _, dLdx = _grads(model, x, w)
        err = _directional_check(model, x, lambda y: np.sum(w * y), dLdx,
                                 _unit_directions(model, x), 1e-40)
        assert err <= 1e-5, (widths, degree, kind, ln, x.shape[0])


def test_float32_gradients_match_float64():
    for widths, degree, kind, ln, x, w, init in CASES:
        g64, dx64 = _grads(_model(widths, degree, kind, ln, init, np.float64), x, w)
        g32, dx32 = _grads(_model(widths, degree, kind, ln, init, np.float32), x, w)
        assert g32.dtype == dx32.dtype == np.float32
        label = str((widths, degree, kind, ln, x.shape[0]))
        # float32 rounding of the coefficients, the basis and every sum,
        # relative to the largest entry of each gradient
        for lo, hi in ((g32, g64), (dx32, dx64)):
            scale = max(float(np.max(np.abs(hi), initial=0.0)), 1e-30)
            np.testing.assert_allclose(lo, hi, rtol=1e-4, atol=1e-5 * scale, err_msg=label)


@pytest.mark.parametrize("kind", KINDS)
def test_eval_basis_derivative_matches_finite_difference(kind):
    for x in np.linspace(-1.0, 1.0, 17):
        d = eval_basis_derivative(x, 8, kind)
        fd = (eval_basis(x + H, 8, kind) - eval_basis(x - H, 8, kind)) / (2 * H)
        np.testing.assert_allclose(d, fd, rtol=1e-7, atol=1e-7)


def test_every_swept_architecture_survives_a_checkpoint(tmp_path):
    path, again = tmp_path / "net.bin", tmp_path / "again.bin"
    for widths, degree, kind, _, x, _, init in CASES:
        for ln in (False, True):
            spec = ArchSpec(widths=widths, degree=degree, kind=kind, layernorm_between=ln)
            model = build(spec, InitMethod.LECUN, init)
            save_network(model, spec, path)
            # the stream: each KAN layer's [in, out, degree+1] coefficients,
            # each LayerNorm's gamma then beta, row-major
            tensors = [t for layer in model.layers for t in (
                (np.moveaxis(layer.w, 0, -1),) if hasattr(layer, "w")
                else (layer.gamma, layer.beta))]
            stream = np.concatenate([t.ravel(order="C") for t in tensors]).astype("<f8")
            assert path.read_bytes().split(b"\n", 1)[1] == stream.tobytes(), spec
            loaded, back = load_network(path)
            assert back == spec
            save_network(loaded, back, again)
            assert again.read_bytes() == path.read_bytes(), spec
            np.testing.assert_array_equal(loaded.forward(x), model.forward(x))


def test_fuzzed_checkpoints_raise_value_error_naming_the_path(tmp_path):
    r = Rng(7, "fuzz/checkpoint")
    spec = ArchSpec([2, 3, 1], 2, PolyKind.FIRST, layernorm_between=False)
    good = tmp_path / "good.bin"
    save_network(build(spec, InitMethod.XAVIER, r.substream("init")), spec, good)
    blob = good.read_bytes()
    header, stream = blob.split(b"\n", 1)
    bad = tmp_path / "bad.bin"
    edits = [blob[:n] for n in range(len(blob))]
    edits += [blob.replace(old, new, 1) for old, new in (
        (b"chebykan-v1", b"chebykan-v2"), (b"chebykan-v1", b"chebykan"),
        (b"chebykan-v1 ", b""), (b" 2 first", b" 3 first"), (b" 2 first", b" x first"),
        (b" 2 first", b" 2 second"), (b" 2 first", b" 2 nope"), (b" 2 first", b" 2"),
        (b"kind=first", b"kind=second"), (b"kind=first", b"kind=x"),
        (b"degree=2", b"degree=-1"), (b"degree=2", b"degree=x"),
        (b"ln=0", b"ln=2"), (b"widths=2", b"widths=+2"), (b"first", b"f\xefrst"),
        (b"widths=2,3,1;degree=2;kind=first;ln=0", b""),
        (b";degree=2;kind=first;ln=0", b""),
        (b"widths=2,3,1;degree=2", b"degree=2;widths=2,3,1"),
        (b"kind=first;ln=0", b"ln=0;kind=first"),
        (b"ln=0", b"ln=0;x=1"))]
    edits.append(blob + b"\0")
    for value in (np.nan, np.inf, -np.inf):
        flat = np.frombuffer(stream, dtype="<f8").copy()
        flat[r.integers(0, flat.size)] = value
        edits.append(header + b"\n" + flat.tobytes())
    for edit in edits:
        bad.write_bytes(edit)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_network(bad)


# Values a config file might hold for any key. The budget keeps every run
# tiny; keys whose large values would allocate at scale are not fuzzed.
FUZZ_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "", "x", "\u00e9", "1,,1")
FUZZ_BUDGET = {"approx": {"steps": "3"}, "fractal": {"grid": "4", "epochs": "1"},
               "gradcheck": {"trials": "1"}, "mnist": {"subset": "16", "epochs": "1"},
               "ablate": {"axis": "norm", "subset": "16", "epochs": "1"}}
UNFUZZED = {"grid", "n", "iters", "trials", "steps"}


def test_fuzzed_config_values_exit_cleanly(tmp_path, synth_mnist_dir, monkeypatch, capsys):
    """A config file that sets one key to a hostile value exits 0, 1 (an
    error naming the key) or 3, or 2 for a data_dir with no IDX files, never
    with a traceback or a numpy warning."""
    monkeypatch.chdir(tmp_path)  # an `out` value names a file here
    monkeypatch.setenv("CHEBYKAN_MNIST_DIR", str(synth_mnist_dir))
    cases = [(command, o.name, value) for command in FUZZ_BUDGET
             for o in cli.COMMANDS[command][1] if o.name not in UNFUZZED
             for value in FUZZ_VALUES]
    for command, key, value in cases:
        config = tmp_path / "fuzz.cfg"
        lines = {**FUZZ_BUDGET[command], key: value}
        config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
        case = (command, key, value)
        code = cli.main([command, "--config", str(config)])
        err = capsys.readouterr().err
        assert code in (0, 1, 3) or code == 2 and key == "data_dir", (case, err)
        assert "Traceback" not in err and "Warning" not in err, (case, err)
        if code == 1:
            assert re.search(rf"\b{key}\b", err), (case, err)


def test_fuzzed_idx_files_raise_idx_format_error(tmp_path):
    r = Rng(7, "fuzz/idx")
    n = 3
    images = r.uniform(0, 256, (n, 4, 4)).astype(np.uint8)
    labels = r.uniform(0, 10, n).astype(np.uint8)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(img, images)
    write_idx(lab, labels)
    assert len(load_mnist_idx(img, lab)) == n
    img_blob, lab_blob = img.read_bytes(), lab.read_bytes()
    cases = [(img, img_blob[:k]) for k in range(len(img_blob))]
    cases += [(lab, lab_blob[:k]) for k in range(len(lab_blob))]
    cases += [
        (img, IMAGES_MAGIC.to_bytes(4, "little") + img_blob[4:]),
        (img, (IMAGES_MAGIC + 1).to_bytes(4, "big") + img_blob[4:]),
        (img, lab_blob),  # a labels file where the images belong
        (lab, img_blob),
        (lab, idx_header_bytes(LABELS_MAGIC, [n - 1]) + lab_blob[8:-1]),
        (img, idx_header_bytes(IMAGES_MAGIC, [n - 1, 4, 4]) + img_blob[16:-16]),
        (img, img_blob + b"\0"),
    ]
    for path, blob in cases:
        original = path.read_bytes()
        path.write_bytes(blob)
        with pytest.raises(IdxFormatError):
            load_mnist_idx(img, lab)
        path.write_bytes(original)


def test_fuzzed_idx_file_exits_2(tmp_path, synth_mnist_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_mnist_dir, data)
    blob = (data / TRAIN_LABELS).read_bytes()
    cut = Rng(7, "fuzz/cli").integers(0, len(blob))
    (data / TRAIN_LABELS).write_bytes(blob[:cut])
    assert cli.main(["mnist", "--data-dir", str(data), "--epochs", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {data / TRAIN_LABELS}")


def _malformed_splits(r):
    """(field, split, widths, task) per malformed split drawn from `r`:
    the field or `widths` its ValueError must name, a zero-argument
    constructor of the split, the widths of a model it is fed to, and the
    task `evaluate` takes it with."""
    n, width, classes = r.integers(2, 9), r.integers(1, 4), r.integers(2, 5)
    x = r.uniform(-2.0, 2.0, (n, width))
    y = r.uniform(-2.0, 2.0, (n, 1))
    labels = r.permutation(n) % classes
    bad_x, bad_y = x.copy(), y.copy()
    row, value = r.integers(0, n), (np.nan, np.inf, -np.inf)[r.integers(0, 3)]
    bad_x[row, r.integers(0, width)] = bad_y[row, 0] = value
    regress, classify = [width, 3, 1], [width, 3, classes]
    for features in (x.tolist(), x.astype(object), x.astype(str), x + 1j * x, x > 0):
        yield "features", lambda f=features: Dataset(features=f, targets=y), regress, "regress"
    yield "targets", lambda: Dataset(features=x, targets=y + 1j * y), regress, "regress"
    yield "targets", lambda: Dataset(features=x, targets=y.tolist()), regress, "regress"
    yield "labels", lambda: Dataset(features=x, labels=labels.tolist()), classify, "classify"
    yield "features", lambda: Dataset(features=bad_x, targets=y), regress, "regress"
    yield "targets", lambda: Dataset(features=x, targets=bad_y), regress, "regress"
    yield "widths", lambda: Dataset(features=x, targets=y), [width + 1, 3, 1], "regress"
    yield "widths", lambda: Dataset(features=x, labels=labels), [width, 3, labels.max()], "classify"


def test_malformed_splits_raise_value_error_naming_the_field():
    """Through `train`, as either split, and through `evaluate`, a split with
    a field of the wrong type, dtype or values, or one that does not fit
    the model, raises ValueError naming the field or `widths` before the
    model's parameters change."""
    root = Rng(36, "fuzz/api")
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-2)
    for draw in range(6):
        r = root.substream(str(draw))
        for field, split, widths, task in _malformed_splits(r):
            model = build(ArchSpec(widths, 2), InitMethod.LECUN, r.substream("init"))
            # a well-formed split the model fits, so each call fails on the
            # malformed split alone
            good = Dataset(features=np.zeros((2, widths[0])), targets=np.zeros((2, widths[-1])))
            before = model.flat_params.copy()
            for call in (lambda: train(model, split(), good, cfg),
                         lambda: train(model, good, split(), cfg),
                         lambda: evaluate(model, split(), task)):
                with pytest.raises(ValueError, match=rf"\b{field}\b"):
                    call()
            np.testing.assert_array_equal(model.flat_params, before)


def _settings(mnist_dir):
    """(call, defaults, fields) per constructor or function that takes
    settings: call(**defaults) runs, and `fields` maps each checked setting
    to the kind of value it takes: "int", "count" (an int or None), "real",
    "bool", "enum", "list" (a list of widths) or "name" (a str key)."""
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-2, widths=[1, 3, 1])
    images, labels = mnist_dir / TRAIN_IMAGES, mnist_dir / TRAIN_LABELS
    digits = load_mnist_idx(images, labels)
    untrained = dataclasses.replace(cfg, epochs=0, widths=[784, 3, 10])
    return [
        (ChebyKanLayer, dict(input_dim=2, output_dim=3, degree=2),
         dict(input_dim="int", output_dim="int", degree="int", kind="enum")),
        (LayerNorm, dict(dim=3), dict(dim="int")),
        (ArchSpec, dict(widths=[2, 3], degree=2),
         dict(widths="list", degree="int", kind="enum", layernorm_between="bool")),
        (lambda widths, **kw: param_count(ArchSpec([widths, 3], **kw)),
         dict(widths=2, degree=2), dict(widths="int", degree="int")),
        (lambda widths, **kw: TrainConfig(widths=[1, widths, 1], **kw), dict(widths=3),
         dict(epochs="int", batch_size="int", max_steps="count", lr="real", seed="int",
              degree="int", widths="int", kind="enum", init="enum", norm="enum",
              f32="bool", layernorm="bool")),
        (TrainConfig, dict(), dict(widths="list")),
        (grad_check, dict(trials=1), dict(trials="int", h="real", seed="int")),
        (lambda **kw: fit_function(cfg, "fuzz", "sin_plus_sq", **kw),
         dict(lo=-1.0, hi=1.0, n=8, test_n=4, steps=1),
         dict(lo="real", hi="real", n="int", test_n="int", steps="int")),
        (lambda **kw: sample_function(rng=Rng(0, "fuzz"), **kw),
         dict(target="step", lo=-1.0, hi=1.0, n=8),
         dict(target="name", lo="real", hi="real", n="int")),
        (lambda axis: run_ablation(axis, untrained, digits, digits), dict(axis="degree"),
         dict(axis="name")),
        (lambda subset: load_mnist_idx(images, labels, subset), dict(subset=2),
         dict(subset="count")),
        (lambda subset: load_mnist(mnist_dir, subset), dict(subset=2), dict(subset="count")),
        (FractalParams, dict(),
         dict(alpha="real", b="real", extent="real", iters="int", grid="int", seed="int")),
        (eval_basis, dict(x=0.5, degree=3), dict(x="real", degree="int", kind="enum")),
        (roots, dict(n=3), dict(n="int")),
        (extrema, dict(n=3), dict(n="int")),
        (gauss_chebyshev, dict(nodes=3), dict(nodes="int", kind="enum")),
        (orthogonality_integral, dict(m=1, n=2),
         dict(m="int", n="int", kind="enum", nodes="int")),
    ]


def _bad_values(kind, r):
    """Values no setting of `kind` takes: those of 2.5, "3", None, 1j and
    np.float64(2.0) it rejects, and more of the same kinds drawn from `r`.
    A real rejects bools and ints beyond the float range, a name any value
    that is not one of its str keys, unhashable ones too."""
    k, x = r.integers(1, 9), float(r.uniform(-2.0, 2.0, ()))
    if kind == "real":
        return ["3", None, 1j, str(x), complex(x, k), [x], 10**400, -10**400, True]
    if kind == "name":
        return ["", str(k), None, k, x, [str(k)], {str(k): k}]
    if kind == "list":
        return ["23", None, k, x, [k], (), [k, k + 0.5], [k, str(k)], [k, None]]
    values = [2.5, "3", None, 1j, np.float64(2.0), k + 0.5, str(k), complex(k), np.float64(k)]
    if kind == "count":  # None means no cap
        values.remove(None)
    return values + (["false", "no"] if kind in ("bool", "enum") else [True])


def test_malformed_settings_raise_value_error_naming_the_field(synth_mnist_dir):
    """Every constructor or function that takes a setting rejects a value of
    the wrong type, or below its floor, with a ValueError naming it."""
    root = Rng(37, "fuzz/settings")
    for i, (call, defaults, fields) in enumerate(_settings(synth_mnist_dir)):
        call(**defaults)  # so each failure below is the malformed setting's
        for draw in range(3):
            r = root.substream(f"{i}/{draw}")
            for name, kind in fields.items():
                for value in _bad_values(kind, r):
                    with pytest.raises(ValueError, match=rf"\b{name}\b"):
                        call(**{**defaults, name: value})
    for call, bad in ((lambda v: ChebyKanLayer(2, 3, v), -1), (roots, 0),
                      (lambda v: TrainConfig(epochs=v), -1), (LayerNorm, 0)):
        with pytest.raises(ValueError, match=f"must be >= {bad + 1}, got {bad}$"):
            call(bad)


def test_settings_are_frozen_and_take_numpy_integers():
    """numpy integers are integers: a config of them builds and trains the
    same bits as one of Python ints, and holds its spec's widths and degree
    as Python ints. A built config cannot be changed, only replaced."""
    ints = dict(epochs=2, batch_size=4, max_steps=3, seed=5, degree=3)
    cfgs = [TrainConfig(widths=widths, lr=1e-2, **{k: cast(v) for k, v in ints.items()})
            for widths, cast in (([1, 4, 1], int), (list(np.array([1, 4, 1])), np.int64))]
    assert cfgs[0].arch() == cfgs[1].arch()
    assert all(type(v) is int for v in (*cfgs[1].arch().widths, cfgs[1].arch().degree))
    ds = sample_function("sin_plus_sq", -1.0, 1.0, 16, Rng(0, "np-ints"))
    models = [cfg.build_model() for cfg in cfgs]
    records = [train(m, ds, ds, cfg) for m, cfg in zip(models, cfgs)]
    assert models[0].flat_params.tobytes() == models[1].flat_params.tobytes()
    assert records[0].rows == records[1].rows
    assert type(ChebyKanLayer(np.int64(2), np.uint8(3), np.int32(1)).degree) is int
    for built, name, value in ((cfgs[1], "epochs", 3), (cfgs[1].arch(), "degree", 2),
                               (FractalParams(), "grid", 8)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, value)


def test_settings_take_numpy_reals_as_floats():
    """numpy floats are reals: a config or surface of np.float64 or
    np.float32 reals holds float() of each, and builds and trains the same
    bits as one of those Python floats."""
    ds = sample_function("sin_plus_sq", -1.0, 1.0, 16, Rng(0, "np-reals"))
    for cast in (np.float64, np.float32):
        lr, alpha, b, extent = cast(1e-2), cast(0.7), cast(0.3), cast(1.5)
        cfgs = [TrainConfig(widths=[1, 4, 1], epochs=2, batch_size=4, lr=v)
                for v in (lr, float(lr))]
        assert type(cfgs[0].lr) is float and cfgs[0] == cfgs[1]
        models = [cfg.build_model() for cfg in cfgs]
        records = [train(m, ds, ds, cfg) for m, cfg in zip(models, cfgs)]
        assert models[0].flat_params.tobytes() == models[1].flat_params.tobytes()
        assert records[0].rows == records[1].rows
        surfaces = [FractalParams(alpha=a, b=c, extent=e, grid=8)
                    for a, c, e in ((alpha, b, extent), (float(alpha), float(b), float(extent)))]
        assert all(type(getattr(surfaces[0], n)) is float for n in ("alpha", "b", "extent"))
        grids = [fractal_grid(p) for p in surfaces]
        assert grids[0].targets.tobytes() == grids[1].targets.tobytes()
        samples = [sample_function("step", lo, hi, 8, Rng(1, "np-reals"))
                   for lo, hi in ((-extent, alpha), (float(-extent), float(alpha)))]
        assert samples[0].features.tobytes() == samples[1].features.tobytes()
