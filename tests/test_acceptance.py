"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria 4 and 5 need the real MNIST IDX files, which are not vendored; point
CHEBYKAN_MNIST_DIR at a directory holding the four decompressed files (or put
them in ./data/mnist) to run them. Everything else is self-contained.
"""

import numpy as np
import pytest

from chebykan import cli
from chebykan.chebyshev import (PolyKind, eval_basis, eval_basis_derivative,
                                orthogonality_integral, roots, extrema)
from chebykan.data import (Dataset, FractalParams, NormScheme, apply_norm,
                           fractal_grid, load_mnist_idx, TRAIN_IMAGES,
                           TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)
from chebykan.experiments import TrainConfig, evaluate, grad_check, train
from chebykan.layers import InitMethod
from chebykan.network import mnist_arch, param_count

from conftest import real_mnist_dir

F, S = PolyKind.FIRST, PolyKind.SECOND


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"criterion {num} ({name}): {status}{tail}")


def _skip(num, name, reason):
    print(f"criterion {num} ({name}): SKIP | {reason}")
    pytest.skip(reason)


def test_criterion_1_parameter_counts():
    expected = {2: 77376, 3: 103136, 4: 128896, 5: 154656}
    got = {d: param_count(mnist_arch(d)) for d in expected}
    ok = got == expected
    _report(1, "parameter-count reproduction", ok, f"{got}")
    assert got == expected


def test_criterion_2_gradient_correctness():
    err = grad_check(trials=100, h=1e-6)
    ok = err <= 1e-5
    _report(2, "gradient correctness", ok, f"max_rel_err {err!r}")
    assert err <= 1e-5


def test_criterion_3_chebyshev_math_suite():
    failures = []

    # trig consistency: T_n(cos t) = cos(nt), U_n(cos t) sin t = sin((n+1)t)
    theta = np.linspace(0.05, np.pi - 0.05, 400)
    x = np.cos(theta)
    tvals = np.stack([eval_basis(xi, 10, F) for xi in x])
    uvals = np.stack([eval_basis(xi, 10, S) for xi in x])
    for n in range(11):
        if np.max(np.abs(tvals[:, n] - np.cos(n * theta))) > 1e-12:
            failures.append(f"trig T_{n}")
        if np.max(np.abs(uvals[:, n] * np.sin(theta)
                         - np.sin((n + 1) * theta))) > 1e-12:
            failures.append(f"trig U_{n}")

    # derivative identity T'_n = n U_{n-1}
    for xi in np.linspace(-0.95, 0.95, 21):
        d = eval_basis_derivative(xi, 8, F)
        u = eval_basis(xi, 7, S)
        if np.max(np.abs(d[1:] - np.arange(1, 9) * u)) > 1e-12:
            failures.append(f"derivative at {xi:.2f}")

    # boundedness of the first kind on [-1, 1]
    grid = np.linspace(-1, 1, 4001)
    tg = np.stack([eval_basis(xi, 10, F) for xi in grid])
    if np.max(np.abs(tg)) > 1 + 1e-12:
        failures.append("boundedness")

    # roots and extrema
    for n in (2, 5, 8):
        r = roots(n)
        if np.max(np.abs([eval_basis(v, n, F)[n] for v in r])) > 1e-12:
            failures.append(f"roots T_{n}")
        e = extrema(n)
        vals = np.array([eval_basis(v, n, F)[n] for v in e])
        if np.max(np.abs(vals - (-1.0) ** np.arange(n + 1))) > 1e-12:
            failures.append(f"extrema T_{n}")

    # orthogonality through Gauss-Chebyshev quadrature
    for m in range(6):
        for n in range(6):
            w1 = 0.0 if m != n else (np.pi if m == 0 else np.pi / 2)
            if abs(orthogonality_integral(m, n, F) - w1) > 1e-10:
                failures.append(f"orthogonality T {m},{n}")
            w2 = np.pi / 2 if m == n else 0.0
            if abs(orthogonality_integral(m, n, S) - w2) > 1e-10:
                failures.append(f"orthogonality U {m},{n}")

    ok = not failures
    _report(3, "Chebyshev math suite", ok, ", ".join(failures) or "all invariants hold")
    assert not failures


def _mnist_splits(data_dir, scheme=NormScheme.TANH, subset=None):
    train_raw = load_mnist_idx(data_dir / TRAIN_IMAGES, data_dir / TRAIN_LABELS)
    test_raw = load_mnist_idx(data_dir / TEST_IMAGES, data_dir / TEST_LABELS)
    if subset is not None:
        train_raw = Dataset(features=train_raw.features[:subset],
                            labels=train_raw.labels[:subset])
    tr = apply_norm(train_raw, scheme)
    te = apply_norm(test_raw, scheme, stats=tr.norm)
    return tr, te


def _mnist_run(data_dir, subset=None, epochs=10, init=InitMethod.XAVIER,
               degree=3, seed=42):
    cfg = TrainConfig(epochs=epochs, batch_size=64, lr=1e-3, seed=seed,
                      degree=degree, init=init)
    tr, te = _mnist_splits(data_dir, cfg.norm, subset)
    model = cfg.build_model()
    return train(model, tr, te, cfg)


@pytest.mark.mnist
def test_criterion_4_mnist_headline():
    name = "MNIST headline"
    data_dir = real_mnist_dir()
    if data_dir is None:
        _skip(4, name, "MNIST IDX files not found; set CHEBYKAN_MNIST_DIR "
              "or place them in ./data/mnist")

    headline = _mnist_run(data_dir).final_metric
    quick = _mnist_run(data_dir, subset=10000).final_metric
    # init comparison at the 10k desk scale: Normal must trail every other
    # method by more than the 0.005 slack
    by_init = {m: _mnist_run(data_dir, subset=10000, init=m).final_metric
               for m in InitMethod}
    normal = by_init[InitMethod.NORMAL]
    others_ok = all(normal <= acc + 0.005 for m, acc in by_init.items()
                    if m is not InitMethod.NORMAL)

    ok = headline >= 0.965 and quick >= 0.90 and others_ok
    detail = (f"headline {headline:.4f} (>=0.965), subset-10k {quick:.4f} "
              f"(>=0.90), normal-worst {others_ok} {by_init}")
    _report(4, name, ok, detail)
    assert headline >= 0.965, detail
    assert quick >= 0.90, detail
    assert others_ok, detail


@pytest.mark.mnist
def test_criterion_5_degree_ablation_shape():
    name = "degree-ablation shape"
    data_dir = real_mnist_dir()
    if data_dir is None:
        _skip(5, name, "MNIST IDX files not found; set CHEBYKAN_MNIST_DIR "
              "or place them in ./data/mnist")

    acc = {d: _mnist_run(data_dir, degree=d).final_metric for d in (2, 3, 4)}
    ok = acc[3] >= acc[2] - 0.002 and acc[4] < acc[3]
    _report(5, name, ok, f"{acc}")
    assert acc[3] >= acc[2] - 0.002, acc
    assert acc[4] < acc[3], acc


def test_criterion_6_function_approximation(tmp_path):
    out = tmp_path / "approx.csv"
    code = cli.main(["approx", "--out", str(out)])
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    y_true = np.array([float(r[1]) for r in rows])
    y_pred = np.array([float(r[2]) for r in rows])
    mse = float(np.mean((y_true - y_pred) ** 2))
    ok = code == 0 and len(rows) == 500 and mse <= 5e-3
    _report(6, "function approximation", ok, f"test MSE {mse!r} (<= 5e-3)")
    assert code == 0
    assert mse <= 5e-3


def test_criterion_7_fractal_fit():
    cfg = TrainConfig(epochs=60, batch_size=64, lr=1e-2, seed=42, degree=3,
                      widths=[2, 64, 64, 1])

    def run(b):
        ds = fractal_grid(FractalParams(b=b, seed=42))
        model = cfg.build_model()
        initial = evaluate(model, ds, "regress")
        record = train(model, ds, ds, cfg)
        return initial, record.rows[-1].test_loss

    initial, final = run(b=0.001)
    _, final_smooth = run(b=0.0)
    ratio = final / initial
    ok = ratio <= 0.1 and final_smooth < final
    detail = (f"ratio {ratio!r} (<= 0.1), smooth {final_smooth!r} "
              f"< noisy {final!r}: {final_smooth < final}")
    _report(7, "fractal fit", ok, detail)
    assert ratio <= 0.1, detail
    assert final_smooth < final, detail


def test_criterion_8_determinism(tmp_path, synth_mnist_dir):
    def strip_wall_time(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("# wall_time_s")]

    mismatches = []

    def rerun(label, args, outputs):
        first = {}
        assert cli.main(args) == 0
        for p in outputs:
            first[p] = strip_wall_time(p)
        assert cli.main(args) == 0
        for p in outputs:
            if strip_wall_time(p) != first[p]:
                mismatches.append(f"{label}:{p.name}")

    out = tmp_path / "a.csv"
    rerun("approx", ["approx", "--steps", "200", "--n", "256", "--test-n",
                     "64", "--out", str(out)], [out])

    fcfg = tmp_path / "f.cfg"
    fcfg.write_text("epochs = 2\nwidths = 2,8,1\n")
    fout = tmp_path / "f.csv"
    rerun("fractal", ["fractal", "--grid", "16", "--config", str(fcfg),
                      "--out", str(fout)],
          [tmp_path / "f_true.csv", tmp_path / "f_pred.csv"])

    gout = tmp_path / "g.csv"
    rerun("gradcheck", ["gradcheck", "--trials", "5", "--out", str(gout)],
          [gout])

    mcfg = tmp_path / "m.cfg"
    mcfg.write_text("widths = 784,16,10\n")
    mout = tmp_path / "m.csv"
    rerun("mnist", ["mnist", "--data-dir", str(synth_mnist_dir), "--config",
                    str(mcfg), "--epochs", "2", "--out", str(mout)], [mout])

    ok = not mismatches
    _report(8, "determinism", ok, ", ".join(mismatches) or
            "approx, fractal, gradcheck, mnist byte-identical")
    assert not mismatches
