"""Seeded property sweep over the ChebyKanLayer: widths 1-5, degree 0-8, both
kinds, LayerNorm between layers or not, batch sizes 1, 3 and 7, drawn from the
package's own Rng.

It reaches the corners grad_check never draws (degrees 7-8, float32), so it
guards the closed-form input gradient ((k+s) P_{k-1} - k x P_k) everywhere,
against the complex-step derivatives grad_check also reads.
It also round-trips every swept architecture through a checkpoint, and feeds
fuzzed checkpoints and IDX files to the loaders, which must reject each one
with their documented error, and hostile config values to the CLI, which
must end each run in a documented exit code.
"""

import re
import shutil

import numpy as np
import pytest

from chebykan import cli
from chebykan.chebyshev import PolyKind, eval_basis, eval_basis_derivative
from chebykan.data import (IMAGES_MAGIC, LABELS_MAGIC, TRAIN_LABELS,
                           IdxFormatError, idx_header_bytes, load_mnist_idx,
                           write_idx)
from chebykan.experiments import _complex_step
from chebykan.layers import InitMethod
from chebykan.ndcore import Rng
from chebykan.network import ArchSpec, build, load_network, save_network

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
        label = str((widths, degree, kind, ln, x.shape[0]))
        numeric = _complex_step(model, x, lambda y: np.sum(w * y), 1e-40)
        for analytic, num in zip(_grads(model, x, w), numeric):
            np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-9, err_msg=label)


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
