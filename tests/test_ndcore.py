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
