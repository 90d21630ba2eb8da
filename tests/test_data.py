import numpy as np
import pytest

from chebykan.data import (IMAGES_MAGIC, LABELS_MAGIC, Dataset, FractalParams,
                           IdxFormatError, NormScheme, apply_norm, fractal_grid,
                           fractal_seed, grid_lines, idx_header_bytes,
                           load_mnist_idx, read_idx, sample_function,
                           write_idx)
from chebykan.ndcore import Rng


def test_idx_round_trip(tmp_path):
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    labels = np.array([7, 1], dtype=np.uint8)
    write_idx(tmp_path / "imgs", images)
    write_idx(tmp_path / "labs", labels)
    np.testing.assert_array_equal(read_idx(tmp_path / "imgs", IMAGES_MAGIC), images)
    np.testing.assert_array_equal(read_idx(tmp_path / "labs", LABELS_MAGIC), labels)


def test_write_idx_rejects_what_a_byte_cannot_hold(tmp_path):
    # a cast would wrap 300 to 44 and -1 to 255, and floor 0.7 to 0
    for bad in (np.array([300, -1, 9]), np.full((1, 2, 2), 0.7), np.array([True, False])):
        with pytest.raises(ValueError):
            write_idx(tmp_path / "x", bad)
    assert not (tmp_path / "x").exists()
    write_idx(tmp_path / "labs", np.array([0, 255, 9]))  # in range: written as bytes
    np.testing.assert_array_equal(read_idx(tmp_path / "labs", LABELS_MAGIC), [0, 255, 9])


def test_idx_header_layout():
    header = idx_header_bytes(IMAGES_MAGIC, (2, 28, 28))
    assert header[:4] == bytes([0, 0, 8, 3])
    assert int.from_bytes(header[4:8], "big") == 2
    assert int.from_bytes(header[8:12], "big") == 28
    assert len(header) == 16


def test_idx_wrong_magic_named_in_error(tmp_path):
    write_idx(tmp_path / "labs", np.array([1], dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="magic"):
        read_idx(tmp_path / "labs", IMAGES_MAGIC)


def test_idx_truncation_detected(tmp_path):
    write_idx(tmp_path / "imgs", np.zeros((2, 3, 3), dtype=np.uint8))
    blob = (tmp_path / "imgs").read_bytes()
    (tmp_path / "short").write_bytes(blob[:-4])
    with pytest.raises(IdxFormatError):
        read_idx(tmp_path / "short", IMAGES_MAGIC)
    (tmp_path / "tiny").write_bytes(blob[:3])
    with pytest.raises(IdxFormatError):
        read_idx(tmp_path / "tiny", IMAGES_MAGIC)


def test_load_mnist_idx_scales_and_checks(tmp_path):
    images = np.full((3, 4, 4), 255, dtype=np.uint8)
    labels = np.array([0, 9, 4], dtype=np.uint8)
    write_idx(tmp_path / "i", images)
    write_idx(tmp_path / "l", labels)
    ds = load_mnist_idx(tmp_path / "i", tmp_path / "l")
    assert ds.features.shape == (3, 16)
    np.testing.assert_allclose(ds.features, 1.0)
    np.testing.assert_array_equal(ds.labels, labels)

    write_idx(tmp_path / "l2", np.array([0, 1], dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_mnist_idx(tmp_path / "i", tmp_path / "l2")
    write_idx(tmp_path / "l3", np.array([0, 1, 12], dtype=np.uint8))
    with pytest.raises(IdxFormatError):
        load_mnist_idx(tmp_path / "i", tmp_path / "l3")


def test_minmax_norm_maps_to_unit_interval():
    feats = np.array([[0.0, 5.0, 1.0],
                      [1.0, 5.0, 3.0],
                      [0.5, 5.0, 2.0]])
    ds = apply_norm(Dataset(features=feats), NormScheme.MINMAX)
    assert ds.features.min() >= -1.0 and ds.features.max() <= 1.0
    np.testing.assert_allclose(ds.features[:, 0], [-1.0, 1.0, 0.0])
    # constant feature maps to 0, not NaN
    np.testing.assert_allclose(ds.features[:, 1], 0.0)


def test_norm_stats_fit_on_train_reused_on_test():
    train = Dataset(features=np.array([[0.0], [2.0]]))
    test = Dataset(features=np.array([[4.0]]))
    tr = apply_norm(train, NormScheme.MINMAX)
    te = apply_norm(test, NormScheme.MINMAX, stats=tr.norm)
    # 4 sits outside the fitted [0, 2] range, so it lands beyond 1
    np.testing.assert_allclose(te.features, [[3.0]])
    with pytest.raises(ValueError):
        apply_norm(test, NormScheme.STANDARDIZE, stats=tr.norm)


def test_standardize_and_tanh():
    feats = Rng(0, "n").normal(5.0, 3.0, (200, 4))
    ds = apply_norm(Dataset(features=feats), NormScheme.STANDARDIZE)
    np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(ds.features.std(axis=0), 1.0, atol=1e-6)
    dt = apply_norm(Dataset(features=feats), NormScheme.TANH)
    np.testing.assert_allclose(dt.features, np.tanh(feats))


def test_sample_function_targets():
    ds = sample_function("sin_plus_sq", -2.0, 2.0, 100, Rng(1, "s"))
    np.testing.assert_allclose(ds.targets,
                               np.sin(ds.features) + ds.features ** 2)
    assert ds.features.min() >= -2.0 and ds.features.max() <= 2.0
    dp = sample_function("polynomial", -1.0, 1.0, 10, Rng(1, "s"))
    x = dp.features
    np.testing.assert_allclose(dp.targets, x ** 3 - 2 * x ** 2 + x)
    dstep = sample_function("step", -1.0, 1.0, 10, Rng(1, "s"))
    assert set(np.unique(dstep.targets)) <= {0.0, 1.0}


def test_sample_function_validation():
    with pytest.raises(ValueError):
        sample_function("sin_plus_sq", -1.0, 1.0, 0, Rng(0, "s"))
    with pytest.raises(ValueError):
        sample_function("sin_plus_sq", 1.0, -1.0, 5, Rng(0, "s"))
    with pytest.raises(ValueError):
        sample_function("nope", -1.0, 1.0, 5, Rng(0, "s"))
    # the last pair is finite, but hi - lo overflows
    for lo, hi in ((float("nan"), 1.0), (-1.0, float("nan")),
                   (float("-inf"), 1.0), (-1.0, float("inf")), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            sample_function("sin_plus_sq", lo, hi, 5, Rng(0, "s"))
    # x is finite, but x * x overflows
    with pytest.raises(ValueError, match="target 'sin_plus_sq' is not finite"):
        sample_function("sin_plus_sq", -1e200, 1e200, 5, Rng(0, "s"))


def test_fractal_seed_values():
    np.testing.assert_allclose(fractal_seed(0.0, 0.0), 1.0)
    np.testing.assert_allclose(fractal_seed(0.0, 1.0),
                               1.0 / np.sqrt(2.0) + np.sin(1.0))


def test_fractal_grid_b0_equals_seed_surface():
    params = FractalParams(b=0.0, grid=16)
    ds = fractal_grid(params)
    assert ds.features.shape == (256, 2)
    expect = fractal_seed(ds.features[:, 0], ds.features[:, 1])
    np.testing.assert_array_equal(ds.targets[:, 0], expect)
    zero_iters = fractal_grid(FractalParams(iters=0, grid=16))
    np.testing.assert_array_equal(zero_iters.targets, ds.targets)


def test_fractal_grid_is_deterministic_and_noisy():
    a = fractal_grid(FractalParams(grid=16))
    b = fractal_grid(FractalParams(grid=16))
    np.testing.assert_array_equal(a.targets, b.targets)
    smooth = fractal_grid(FractalParams(b=0.0, grid=16))
    diff = a.targets - smooth.targets
    assert np.any(diff != 0.0)
    # 5 iterations of alpha*b*N(0,1): std approximately sqrt(5)*7e-4
    assert abs(diff.std() - np.sqrt(5) * 0.0007) < 3e-4


def test_fractal_params_validation():
    with pytest.raises(ValueError):
        fractal_grid(FractalParams(iters=-1))
    with pytest.raises(ValueError):
        fractal_grid(FractalParams(grid=1))
    with pytest.raises(ValueError):
        fractal_grid(FractalParams(extent=0.0))
    for name in ("alpha", "b", "extent"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                fractal_grid(FractalParams(grid=4, **{name: bad}))
    # each value is finite, but the surface overflows
    for big in (dict(extent=1e200), dict(alpha=1e200, b=1e200)):
        with pytest.raises(ValueError, match="surface is not finite"):
            fractal_grid(FractalParams(grid=4, **big))


def test_grid_lines_round_trip():
    ds = fractal_grid(FractalParams(b=0.0, grid=4))
    rows = [tuple(float(v) for v in l.split()) for l in grid_lines(ds)]
    assert len(rows) == 16
    np.testing.assert_allclose(np.array(rows),
                               np.column_stack([ds.features, ds.targets]))


def test_grid_lines_needs_2d_features():
    with pytest.raises(ValueError):
        grid_lines(Dataset(features=np.zeros((4, 3)), targets=np.zeros((4, 1))))
