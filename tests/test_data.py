import os
import re
import shutil
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from chebykan import data
from chebykan.data import (IDX_CHUNK_BYTES, IMAGES_MAGIC, LABELS_MAGIC, TRAIN_IMAGES, TRAIN_LABELS,
                           Dataset, FractalParams, IdxFormatError, NormScheme,
                           apply_norm, fractal_grid, fractal_seed, grid_lines,
                           idx_header_bytes, load_mnist, load_mnist_idx,
                           read_idx, sample_function, write_idx)
from chebykan.ndcore import BLOCK_BYTES, Rng


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


def test_load_mnist_idx_maps_every_byte_value_exactly(tmp_path):
    write_idx(tmp_path / "i", np.arange(256, dtype=np.uint8).reshape(4, 8, 8))
    write_idx(tmp_path / "l", np.zeros(4, dtype=np.uint8))
    feats = load_mnist_idx(tmp_path / "i", tmp_path / "l").features
    assert feats.dtype == np.float64 and feats.flags.c_contiguous
    np.testing.assert_array_equal(feats.ravel(), np.arange(256) / 255.0)


def test_load_mnist_subset_converts_only_the_kept_rows(synth_mnist_dir, tmp_path):
    full, full_test = load_mnist(synth_mnist_dir)
    train, test = load_mnist(synth_mnist_dir, subset=5)
    # not a view of all 600 converted rows, which would stay alive with it
    assert train.features.shape == (5, 784) and train.features.base is None
    assert train.labels.shape == (5,) and train.labels.base is None
    assert train.features.tobytes() == full.features[:5].tobytes()
    np.testing.assert_array_equal(train.labels, full.labels[:5])
    assert test.features.tobytes() == full_test.features.tobytes()
    # rows past the subset are still checked
    shutil.copytree(synth_mnist_dir, tmp_path, dirs_exist_ok=True)
    labels = full.labels.astype(np.uint8)
    labels[-1] = 10
    write_idx(tmp_path / TRAIN_LABELS, labels)
    with pytest.raises(IdxFormatError, match="label 10"):
        load_mnist(tmp_path, subset=5)


@pytest.mark.parametrize("chunks", [1, 1 + 1 / 83, 2.5, None])  # 83 rows of 784 bytes fill one
def test_load_mnist_idx_streams_the_kept_rows_exactly(synth_mnist_dir, chunks):
    images, labels = synth_mnist_dir / TRAIN_IMAGES, synth_mnist_dir / TRAIN_LABELS
    n = None if chunks is None else round(chunks * (IDX_CHUNK_BYTES // 784))
    ds = load_mnist_idx(images, labels, n)
    pixels = read_idx(images, IMAGES_MAGIC)[:n]
    want = np.divide(pixels.reshape(len(pixels), -1), 255.0, dtype=np.float64)
    assert ds.features.dtype == np.float64 and ds.features.tobytes() == want.tobytes()
    assert ds.labels.dtype == np.int64
    np.testing.assert_array_equal(ds.labels, read_idx(labels, LABELS_MAGIC)[:n])


def test_every_idx_error_keeps_its_message(tmp_path, monkeypatch):
    def path(name, blob):
        (tmp_path / name).write_bytes(blob)
        return tmp_path / name

    header = idx_header_bytes(IMAGES_MAGIC, (2, 3, 3))
    labels = path("l", idx_header_bytes(LABELS_MAGIC, (2,)) + bytes([1, 2]))
    for images, message in [
        (path("tiny", header[:3]), "tiny: truncated header (3 bytes)"),
        (path("dims", header[:10]), "dims: truncated header (10 bytes)"),
        (path("short", header + bytes(14)), "short: header implies 18 data bytes, found 14"),
        (path("long", header + bytes(22)), "long: header implies 18 data bytes, found 22"),
        (path("magic", idx_header_bytes(LABELS_MAGIC, (18,)) + bytes(18)),
         "magic: magic 0x00000801 but expected 0x00000803"),
        (path("none", idx_header_bytes(IMAGES_MAGIC, (0, 3, 3))), "none: holds no images"),
        (path("three", idx_header_bytes(IMAGES_MAGIC, (3, 3, 3)) + bytes(27)),
         "count mismatch: 3 images vs 2 labels"),
    ]:
        with pytest.raises(IdxFormatError, match=re.escape(message)):
            load_mnist_idx(images, labels)
        if "images" not in message:  # one file's own fault: read_idx names it too
            with pytest.raises(IdxFormatError, match=re.escape(message)):
                read_idx(images, IMAGES_MAGIC)
    # a label past the kept rows is still checked
    bad = path("bad", idx_header_bytes(LABELS_MAGIC, (2,)) + bytes([1, 12]))
    with pytest.raises(IdxFormatError, match=re.escape("bad: label 12 outside [0, 10)")):
        load_mnist_idx(path("ok", header + bytes(18)), bad, subset=1)

    def no_open(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(data, "open", no_open, raising=False)
    with pytest.raises(ValueError, match="subset must be >= 1, got 0"):
        load_mnist_idx(tmp_path / "ok", labels, subset=0)


def test_load_mnist_idx_holds_only_the_features_labels_and_one_chunk(tmp_path):
    n, side = 20_000, 8
    write_idx(tmp_path / "i", np.full((n, side, side), 7, dtype=np.uint8))
    write_idx(tmp_path / "l", np.arange(n) % 10)
    tracemalloc.start()
    try:
        ds = load_mnist_idx(tmp_path / "i", tmp_path / "l")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (n, side * side)
    # the file's uint8 labels and their int64 copy; twice the chunk leaves
    # room for the interpreter's own small objects, but not for the image
    # file's 1.28 MB body
    bound = ds.features.nbytes + n * (1 + 8) + 2 * IDX_CHUNK_BYTES
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("subset", [0, -5])
def test_a_subset_below_one_is_rejected_before_any_file_is_read(synth_mnist_dir, tmp_path, subset):
    # -5 would keep all but the last 5 rows, and 0 no row at all
    message = f"subset must be >= 1, got {subset}"
    paths = (synth_mnist_dir / TRAIN_IMAGES, synth_mnist_dir / TRAIN_LABELS)
    for images, labels in (paths, (tmp_path / "nowhere", tmp_path / "nothing")):
        with pytest.raises(ValueError, match=message):
            load_mnist_idx(images, labels, subset)
    with pytest.raises(ValueError, match=message):
        load_mnist(tmp_path / "nowhere", subset)


@pytest.mark.parametrize("cpus", [1, 2, 4, 8])
def test_tanh_norm_is_bit_identical_whatever_the_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    block = BLOCK_BYTES // (784 * 8)
    x = Rng(3, "tanh").uniform(-4.0, 4.0, (5 * block + 37, 784))
    cases = [x[:n].astype(dtype) for dtype in (np.float64, np.float32)
             for n in (0, 1, 7, len(x))]
    cases += [(np.abs(x) * 64).astype(np.uint8), x[:, 3:700:2]]  # a column-sliced view
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the shared block iterator over often
    try:
        for f in cases:
            before = f.copy()
            got = apply_norm(Dataset(features=f), NormScheme.TANH).features
            want = np.tanh(f).astype(np.float64, copy=False)
            assert got.dtype == np.float64 and got.shape == f.shape, f.dtype
            assert got.tobytes() == want.tobytes(), (f.dtype, f.shape)
            assert f.tobytes() == before.tobytes(), "the input was modified"
    finally:
        sys.setswitchinterval(old)
    if cpus > 1:
        assert any(t.name.startswith("chebykan") for t in threading.enumerate())


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
