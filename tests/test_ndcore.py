import itertools
import os
import threading
import time

import numpy as np
import pytest

from chebykan import ndcore
from chebykan.ndcore import Rng, ShapeError


def test_rng_same_seed_and_stream_reproduces():
    a = Rng(7, "x").normal(0.0, 1.0, (4, 3))
    b = Rng(7, "x").normal(0.0, 1.0, (4, 3))
    np.testing.assert_array_equal(a, b)


def test_rng_streams_are_independent():
    a = Rng(7, "x").normal(0.0, 1.0, 100)
    b = Rng(7, "y").normal(0.0, 1.0, 100)
    assert not np.array_equal(a, b)


def test_rng_substream_differs_from_parent():
    root = Rng(7, "train")
    child = root.substream("shuffle")
    assert child.stream == "train/shuffle"
    a = Rng(7, "train").uniform(0, 1, 50)
    b = Rng(7, "train/shuffle").uniform(0, 1, 50)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(child.uniform(0, 1, 50), b)


def test_rng_rejects_bad_params():
    # seeds outside [0, 2**64) would alias ones inside it
    for seed in (-1, 2**64, 2**64 + 42, 1.5):
        with pytest.raises(ValueError, match="seed"):
            Rng(seed, "t")
    assert Rng(2**64 - 1, "t").seed == 2**64 - 1
    r = Rng(0, "t")
    with pytest.raises(ValueError):
        r.uniform(2.0, 1.0, 3)
    with pytest.raises(ValueError):
        r.normal(0.0, -1.0, 3)


def test_permutation_covers_range():
    p = Rng(3, "perm").permutation(10)
    assert sorted(p.tolist()) == list(range(10))


def test_as_mat_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        ndcore.as_mat(np.zeros((2, 2, 2)))


def test_check_dtype_admits_only_float32_and_float64():
    for dtype in (np.float32, np.float64, "float32", "f8", np.dtype("<f4")):
        assert ndcore.check_dtype(dtype) == np.dtype(dtype)
        assert isinstance(ndcore.check_dtype(dtype), np.dtype)
    for dtype in (np.int64, np.uint8, np.bool_, np.float16, np.complex64, object, "foo"):
        with pytest.raises(ValueError, match="unsupported dtype .*; use float32 or float64"):
            ndcore.check_dtype(dtype)


def _fake_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 5 * 7 + 3])
def test_row_blocks_tile_every_row_exactly_once(monkeypatch, n):
    _fake_cpus(monkeypatch, 4)
    calls = []  # list.append holds the GIL
    ndcore.for_row_blocks(lambda _, lo, hi: calls.append((lo, hi)), n, 7)
    want = [(lo, min(lo + 7, n)) for lo in range(0, n, 7)] or [(0, 0)]  # 0 rows: one empty block
    assert sorted(calls) == want


@pytest.mark.parametrize("cpus, n, want", [
    (8, 5 * 7, 5),      # never more workers than blocks
    (2, 5 * 7, 2),      # nor than CPUs in the mask
    (1, 9 * 7, 1),
    (8, 7 * 7 + 1, 8),
])
def test_worker_count_is_the_blocks_capped_by_the_cpu_mask(monkeypatch, cpus, n, want):
    # BLAS's thread count plays no part
    _fake_cpus(monkeypatch, cpus)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    states = ndcore.for_row_blocks(lambda s, lo, hi: None, n, 7, itertools.count(1).__next__)
    assert states == list(range(1, want + 1))  # one state per worker


def test_one_block_runs_on_the_calling_thread_and_reads_no_cpu_mask(monkeypatch):
    def no_mask(pid):
        raise AssertionError("the CPU mask was read")

    monkeypatch.setattr(os, "sched_getaffinity", no_mask, raising=False)
    monkeypatch.setattr(ndcore, "_pool", {})  # a pool made here would land in it
    threads = []
    for n in (0, 1, 7):
        states = ndcore.for_row_blocks(
            lambda s, lo, hi: threads.append(threading.current_thread()), n, 7, object)
        assert len(states) == 1
    assert threads == [threading.current_thread()] * 3
    assert ndcore._pool == {}


def test_an_exception_in_the_callers_block_waits_for_the_started_pool_calls(monkeypatch):
    _fake_cpus(monkeypatch, 8)
    caller, pool_ran = threading.current_thread(), threading.Event()
    running, ended = [], []  # list.append and .pop hold the GIL

    def task(_, lo, hi):
        if threading.current_thread() is caller:
            pool_ran.wait(10)  # leave the pool a block in flight
            raise ValueError("the caller's block failed")
        running.append(lo)
        pool_ran.set()
        time.sleep(0.01)
        running.pop()
        ended.append(lo)

    with pytest.raises(ValueError, match="the caller's block failed"):
        ndcore.for_row_blocks(task, 64, 1)
    assert pool_ran.is_set() and ended and not running


def test_no_worker_takes_a_block_after_another_has_raised(monkeypatch):
    _fake_cpus(monkeypatch, 8)
    caller, pool_ran = threading.current_thread(), threading.Event()
    raised, late = [], []  # list.append holds the GIL

    def task(_, lo, hi):
        if threading.current_thread() is caller:
            pool_ran.wait(10)
            raised.append(lo)
            raise ValueError("the caller's block failed")
        if raised:
            late.append(lo)
        pool_ran.set()
        time.sleep(0.01)

    with pytest.raises(ValueError, match="the caller's block failed"):
        ndcore.for_row_blocks(task, 64, 1)
    # each of the 7 pool calls may have taken one block before the raise
    # and started it after; none takes another
    assert pool_ran.is_set() and len(late) <= 7


def test_an_exception_in_a_pool_call_reaches_the_caller(monkeypatch):
    _fake_cpus(monkeypatch, 8)
    caller, pool_raised = threading.current_thread(), threading.Event()

    def task(_, lo, hi):
        if threading.current_thread() is caller:
            pool_raised.wait(10)  # keep the pool's calls from being cancelled
            return
        pool_raised.set()
        raise ValueError("a pool block failed")

    with pytest.raises(ValueError, match="a pool block failed"):
        ndcore.for_row_blocks(task, 64, 1)
    assert pool_raised.is_set()


def test_pool_calls_run_under_the_callers_numpy_error_state(monkeypatch):
    _fake_cpus(monkeypatch, 8)
    caller, pool_ran = threading.current_thread(), threading.Event()
    seen = []  # list.append holds the GIL

    def task(_, lo, hi):
        if threading.current_thread() is caller:
            pool_ran.wait(10)
            return
        seen.append(np.geterr())
        pool_ran.set()
        np.float64(1.0) / np.float64(0.0)  # raises only under the caller's state

    with np.errstate(divide="raise", under="raise"):
        want = np.geterr()
        with pytest.raises(FloatingPointError, match="divide by zero"):
            ndcore.for_row_blocks(task, 64, 1)
    assert seen and all(err == want for err in seen)
    assert np.geterr() != want  # the caller's state is its own again


@pytest.mark.parametrize("m, k, n, rows", [
    (79, 250, 50, [79]),            # just under GEMM_MACS: one call
    (80, 250, 50, [80]),            # at it: one call
    (81, 250, 50, [41, 40]),        # just over, at 80 rows a tile: two tiles
    (33, 250, 125, [17, 16]),       # at most GEMM_MIN_ROWS rows a tile: two tiles
    (64, 250, 128, [64]),           # at most 31: one call
    (39, 784, 32, [39]),            # the MNIST layer's widest call under the bound
    (64, 784, 32, [32, 32]),        # the batch-64 contraction
    (784, 64, 32, [392, 392]),      # its coefficient gradient
    (784, 1024, 32, [784]),         # the batch-1,024 one: 30 rows a tile
    (64, 784, 1024, [64]),          # a 784x1024 contraction: one row a tile
])
def test_matmul_tiles_cuts_only_tiles_of_enough_rows(matmul_calls, m, k, n, rows):
    # a product over GEMM_MACS multiply-adds is cut into even row tiles
    # within the bound, if the bound allows GEMM_MIN_ROWS rows a tile
    assert (ndcore.GEMM_MACS, ndcore.GEMM_MIN_ROWS) == (1_000_000, 32)
    r = Rng(0, "tiles")
    a, b = r.normal(0.0, 1.0, (m, k)), r.normal(0.0, 1.0, (k, n))
    want = a @ b
    got = ndcore.matmul_tiles(a, b, np.empty((m, n)))
    assert matmul_calls == [(rows_i, k, n) for rows_i in rows]
    if len(rows) > 1:
        assert max(rows) * k * n <= ndcore.GEMM_MACS
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_matmul_tiles_is_np_matmul_for_every_operand_layout():
    r = Rng(1, "tiles")
    t = r.normal(0.0, 1.0, (3, 100, 784))
    cases = {
        "2-D": (t[0], r.normal(0.0, 1.0, (784, 32))),
        "stacked": (t, r.normal(0.0, 1.0, (3, 784, 32))),
        "transposed view": (t.transpose(0, 2, 1), r.normal(0.0, 1.0, (100, 32))),
        "2-D @ 3-D": (r.normal(0.0, 1.0, (100, 32)), r.normal(0.0, 1.0, (3, 784, 32)).transpose(0, 2, 1)),
    }
    for case, (a, b) in cases.items():
        want = np.matmul(a, b)
        a_rows, inner = a.shape[-2:]
        assert a_rows * inner * b.shape[-1] > ndcore.GEMM_MACS, case  # so it is tiled
        got = ndcore.matmul_tiles(a, b, np.empty_like(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                                   err_msg=case)


def test_matmul_tiles_of_no_rows_writes_nothing(matmul_calls):
    buf = np.full((3, 5, 32), np.nan)  # the 0-row outputs view its rows
    for a, b in ((np.empty((3, 0, 784)), np.ones((3, 784, 32))),
                 (np.empty((0, 784)), np.ones((3, 784, 32)))):
        assert ndcore.matmul_tiles(a, b, buf[:, :0]).shape == (3, 0, 32)
    assert np.isnan(buf).all() and all(rows == 0 for rows, _, _ in matmul_calls)
