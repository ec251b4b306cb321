"""The split helper, and every job that runs on it, against serial runs.

Each split job must give the same bytes at 1, 2 and 3 workers as the serial
form it replaced: ``_reference_conv2d_forward`` and
``_reference_conv2d_backward`` are the earlier one-thread ops verbatim, and
the Adam step and the feature pass are compared with themselves at one
worker.  Three workers on a host with fewer CPUs still run three slices.
"""

import errno
import gc
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from eegspeech import covariance, parallel, pipeline, recording
from eegspeech.cli import main
from eegspeech.config import RunConfig
from eegspeech.nn import Adam, Tensor, ops, optim
from eegspeech.nn.optim import BLOCK

from conftest import random_recording, workers


# --- the helper --------------------------------------------------------------

@pytest.mark.parametrize("grain", [1, 3])
@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64])
def test_slices_cover_the_range_in_order(n_workers, n, grain):
    seen = []
    with workers(n_workers):
        parallel.split(n, lambda lo, hi: seen.append((lo, hi)), grain)
    seen.sort()
    assert [i for lo, hi in seen for i in range(lo, hi)] == list(range(n))
    assert len(seen) == min(n, max(1, min(n_workers, n // grain)))
    lengths = [hi - lo for lo, hi in seen]
    assert not lengths or max(lengths) - min(lengths) <= 1
    assert len(seen) <= 1 or min(lengths) >= grain


def test_one_slice_runs_inline_and_starts_no_thread(monkeypatch):
    def no_start(thread):
        raise AssertionError("a call of one slice must start no thread")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    calls = []
    with workers(1):
        parallel.split(10, lambda lo, hi: calls.append((lo, hi, threading.current_thread())))
    with workers(2):  # too few items for two slices of the grain
        parallel.split(3, lambda lo, hi: calls.append((lo, hi, threading.current_thread())), 2)
    assert calls == [(0, 10, threading.current_thread()), (0, 3, threading.current_thread())]


def test_a_nested_call_splits_and_covers_every_index_once():
    inner = []

    def outer(lo, hi):
        parallel.split(4, lambda a, b: inner.append((lo, a, b)))

    with workers(2):
        runner = threading.Thread(target=parallel.split, args=(2, outer), daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
    assert sorted(inner) == [(0, 0, 2), (0, 2, 4), (1, 0, 2), (1, 2, 4)]


@pytest.mark.parametrize("n_workers", [2, 3])
def test_no_thread_outlives_a_call(n_workers):
    before = threading.enumerate()
    started = []

    def part(lo, hi):
        started.append(threading.current_thread())
        time.sleep(0.02)

    def raising(at):
        def part(lo, hi):
            time.sleep(0.02)
            if lo == at:
                raise ValueError(f"slice at {lo}")
        return part

    with workers(n_workers):
        parallel.split(n_workers, part)
        assert len(set(started)) == n_workers
        assert threading.enumerate() == before
        for at in (0, 1):  # the calling thread's slice, and another thread's
            with pytest.raises(ValueError, match=f"^slice at {at}$"):
                parallel.split(n_workers, raising(at))
            assert threading.enumerate() == before


def test_a_thread_that_cannot_start_is_raised_once_the_started_ones_end(monkeypatch):
    start, starts, ended = threading.Thread.start, [], []

    def second_fails(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    def part(lo, hi):
        time.sleep(0.1)
        ended.append(lo)

    before = threading.enumerate()
    monkeypatch.setattr(threading.Thread, "start", second_fails)
    with workers(3):
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            parallel.split(3, part)
    # slice 1's thread was joined; slice 2 never started, and the calling
    # thread raised before it ran slice 0
    assert ended == [1]
    assert threading.enumerate() == before


def test_the_first_failing_slice_is_raised_after_every_part_ends():
    ended = []

    def part(lo, hi):
        if lo == 0:
            time.sleep(0.05)
        if lo > 0:
            time.sleep(0.2)
            ended.append(lo)
            raise ValueError(f"slice at {lo}")
        ended.append(lo)

    with workers(3):
        with pytest.raises(ValueError, match="^slice at 1$"):
            parallel.split(3, part)
        assert sorted(ended) == [0, 1, 2]

    def first_fails(lo, hi):
        if lo == 0:
            raise KeyError("first")
        time.sleep(0.2)
        ended.append(lo)

    ended.clear()
    with workers(2):
        with pytest.raises(KeyError, match="first"):
            parallel.split(2, first_fails)
        assert ended == [1]


def test_a_forked_child_splits_on_threads_of_its_own():
    with workers(2):
        parallel.split(2, lambda lo, hi: None)  # a split in the parent first
        pid = os.fork()
        if pid == 0:  # the child starts threads of its own
            code = 1
            try:
                done = []
                parallel.split(2, lambda lo, hi: done.append(lo))
                code = 0 if sorted(done) == [0, 1] else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0


def test_many_short_splits_write_each_element_once():
    # more workers than this host's CPUs, and threads switching every microsecond
    counts = np.zeros(997, dtype=np.int64)

    def part(lo, hi):
        for i in range(lo, hi):
            counts[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(3):
            for _ in range(200):
                parallel.split(len(counts), part)
    finally:
        sys.setswitchinterval(interval)
    assert (counts == 200).all()


# --- the process runner ------------------------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _timed(seconds):
    def unit():
        start = time.monotonic()
        time.sleep(seconds)
        return start, time.monotonic(), os.getpid(), parallel.WORKERS

    return unit


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_units_start_in_order_with_at_most_workers_children_alive(n_workers, monkeypatch):
    # the start order is the order of the parent's forks: two children forked
    # back to back may read their own clocks in the other order
    forked, reaped, unreaped = [], [], []
    fork, waitpid = os.fork, os.waitpid

    def recording_fork():
        pid = fork()
        if pid:
            unreaped.append(len(forked) - len(reaped))
            forked.append(pid)
        return pid

    def recording_waitpid(pid, options):
        reaped.append(pid)
        return waitpid(pid, options)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    with workers(n_workers), parallel.Units({key: _timed(0.2) for key in range(5)}) as units:
        got = [units.result(key) for key in (4, 0, 1, 2, 3)]
    _no_child_left()
    if n_workers == 1:
        # no two units can run at once, so each runs here when it is asked for
        assert forked == [] and [pid for *_, pid, _ in got] == [os.getpid()] * 5
        assert [start for start, *_ in got] == sorted(start for start, *_ in got)
        assert {n for *_, n in got} == {1}
        return
    assert forked == [pid for *_, pid, _ in got[1:]] + [got[0][2]]
    assert max(unreaped) < n_workers  # the forked child not yet counted
    # a child reads its end before it writes its result, and the parent forks
    # a later child only after it has read that result, so these clocks can
    # bound how many children were alive at once
    spans = sorted(got, key=lambda g: g[0])
    for start, *_ in spans:  # children alive at each start, that one included
        assert sum(s <= start < e for s, e, *_ in spans) <= n_workers
    assert len({pid for *_, pid, _ in got} | {os.getpid()}) == 6
    assert {n for *_, n in got} == {1}  # each child runs at one worker


def _raising(exc):
    def unit():
        raise exc
    return unit


def test_a_units_exception_comes_back_by_its_class_or_as_unit_failed():
    with workers(2), parallel.Units({
            "key": _raising(KeyError("kept")),
            "value": _raising(ValueError("not kept")),
            "exit": lambda: os._exit(3),
            "signal": lambda: os.kill(os.getpid(), signal.SIGKILL),
            "ok": lambda: "done"}, passes=(KeyError,)) as units:
        with pytest.raises(KeyError, match="kept"):
            units.result("key")
        with pytest.raises(parallel.UnitFailed, match="^ValueError: not kept$"):
            units.result("value")
        with pytest.raises(parallel.UnitFailed, match="exited with status 3 without a result"):
            units.result("exit")
        with pytest.raises(parallel.UnitFailed, match=r"signal 9 \(SIGKILL\)"):
            units.result("signal")
        assert units.result("ok") == "done"
    _no_child_left()


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("exc, raised, message", [
    (KeyError("kept"), KeyError, "kept"),
    (ValueError("not kept"), parallel.UnitFailed, "^ValueError: not kept$"),
    (KeyboardInterrupt(), KeyboardInterrupt, None),
    (SystemExit(3), SystemExit, "^3$"),
])
def test_an_exception_raised_here_comes_back_as_a_childs_would(n_workers, exc, raised,
                                                               message, monkeypatch):
    def no_fork():
        raise AssertionError("a lone unit must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    with workers(n_workers), parallel.Units({"unit": _raising(exc)},
                                            passes=(KeyError,)) as units:
        with pytest.raises(raised, match=message):
            units.result("unit")


def test_a_unit_whose_child_cannot_start_is_unit_failed(monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with workers(2), parallel.Units({"a": lambda: 1, "b": lambda: 2}) as units:
        for key in "ab":
            with pytest.raises(parallel.UnitFailed, match="could not be started"):
                units.result(key)
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_close_kills_and_reaps_every_child_and_starts_no_more():
    start = time.monotonic()
    with workers(2):
        units = parallel.Units({key: _timed(60) for key in range(4)})
        units.close()
    assert time.monotonic() - start < 30
    _no_child_left()
    with pytest.raises(KeyError):
        units.result(2)


# --- convolution -------------------------------------------------------------

def _reference_im2col(x, kh, kw):
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    b, c, h_out, w_out = win.shape[:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, h_out * w_out)


def _reference_conv2d_forward(x, weights, bias):
    c_out, c_in, kh, kw = weights.shape
    out = weights.reshape(c_out, -1) @ _reference_im2col(x, kh, kw)
    out = out.reshape(len(x), c_out, x.shape[2] - kh + 1, x.shape[3] - kw + 1)
    out += bias[:, None, None]
    return out


def _reference_conv2d_backward(x, weights, grad):
    c_out, c_in, kh, kw = weights.shape
    b, _, h_out, w_out = grad.shape
    g = grad.reshape(b, c_out, h_out * w_out)
    db = grad.sum(axis=(0, 2, 3))
    dw = (g @ _reference_im2col(x, kh, kw).transpose(0, 2, 1)).sum(axis=0).reshape(weights.shape)
    dcols = (weights.reshape(c_out, -1).T @ g).reshape(b, c_in, kh, kw, h_out, w_out)
    dx = np.zeros(x.shape)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + h_out, j:j + w_out] += dcols[:, :, i, j]
    return dx, dw, db


@pytest.mark.parametrize("c_in,c_out", [(1, 32), (32, 64)])
@pytest.mark.parametrize("batch", [1, 3, 8, 64])
def test_conv_matches_the_serial_ops_at_every_worker_count(batch, c_in, c_out, monkeypatch):
    monkeypatch.setattr(ops, "SPLIT_MACS", 1)  # split this small a batch too
    rng = np.random.default_rng(batch * 100 + c_in)
    x = rng.normal(size=(batch, c_in, 7, 6))
    w = rng.normal(size=(c_out, c_in, 3, 3))
    b = rng.normal(size=c_out)
    grad = rng.normal(size=(batch, c_out, 5, 4))
    want = [_reference_conv2d_forward(x, w, b), *_reference_conv2d_backward(x, w, grad)]
    for n in (1, 2, 3):
        with workers(n):
            got = [ops.conv2d_forward(x, w, b), *ops.conv2d_backward(x, w, grad)]
        for name, a, e in zip(("out", "dx", "dw", "db"), got, want):
            assert a.shape == e.shape and a.tobytes() == e.tobytes(), (n, name)


# --- Adam --------------------------------------------------------------------

def _adam_run(shapes, n_workers, steps=3):
    rng = np.random.default_rng(8)
    params = [(f"p{i}", Tensor(rng.normal(size=shape))) for i, shape in enumerate(shapes)]
    adam = Adam(params, learning_rate=0.01)
    with workers(n_workers):
        for _ in range(steps):
            for _, t in params:
                t.grad = rng.normal(size=t.shape) * 10.0 ** rng.uniform(-6, 3, size=t.shape)
            adam.step()
    return [(t.data.tobytes(), adam._m[name].tobytes(), adam._v[name].tobytes())
            for name, t in params]


@pytest.mark.parametrize("n", [2, 3])
def test_adam_matches_one_worker_around_the_split_sizes(n, monkeypatch):
    monkeypatch.setattr(optim, "SPLIT_BLOCKS", 1)
    for k in range(2, n + 1):  # steps of one element short of a k-way split, and over it
        edge = optim.SPLIT_BLOCKS * BLOCK * k
        for total in (edge - 1, edge, edge + 5 * n + 1):
            shapes = [(7,), (2, total // 4), (total - 7 - 2 * (total // 4), 1)]
            assert _adam_run(shapes, n) == _adam_run(shapes, 1), (k, total)


# --- the feature pass --------------------------------------------------------

def _recordings(n=9):
    rng = np.random.default_rng(21)
    return [random_recording(rng, n_channels=5, n_times=200, sample_rate_hz=128.0)
            for _ in range(n)]


def test_ccv_features_match_one_worker(monkeypatch):
    monkeypatch.setattr(pipeline, "SPLIT_SAMPLES", 1)  # split these small trials too
    recs, cfg = _recordings(), RunConfig(seed=0, tasks=("uw",))
    with workers(1):
        want = [c.values.tobytes() for c in pipeline.ccv_features(recs, cfg)]
    for n in (2, 3):
        with workers(n):
            assert [c.values.tobytes() for c in pipeline.ccv_features(recs, cfg)] == want


def _clear_filter_design():
    recording.bandpass_design.cache_clear()


def test_a_feature_pass_designs_its_filter_once(monkeypatch):
    monkeypatch.setattr(pipeline, "SPLIT_SAMPLES", 1)
    recs, cfg = _recordings(), RunConfig(seed=0, tasks=("uw",))
    want = []
    for rec in recs:
        # each trial with a filter designed for it alone, as before the cache
        _clear_filter_design()
        want.append(covariance.ccv_matrix(pipeline.preprocess(rec, cfg)).values.tobytes())
    calls = []

    def counting(original):
        def call(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return call

    for name in ("butter", "sosfilt_zi"):
        monkeypatch.setattr(recording, name, counting(getattr(recording, name)))
    for n in (1, 2, 3):
        calls.clear()
        _clear_filter_design()
        try:
            with workers(n):
                got = [c.values.tobytes() for c in pipeline.ccv_features(recs, cfg)]
            misses = recording.bandpass_design.cache_info().misses
        finally:
            _clear_filter_design()
        # one design of the sections and one of their steady state for all the trials
        assert sorted(calls) == ["butter", "sosfilt_zi"], n
        assert misses == 1, n
        assert got == want, n


# --- a whole run -------------------------------------------------------------

def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_train_writes_the_same_bytes_at_one_and_two_workers(tmp_path, monkeypatch):
    # every conv batch, the two parameters of 2 blocks or more and the trials split too
    monkeypatch.setattr(ops, "SPLIT_MACS", 1)
    monkeypatch.setattr(optim, "SPLIT_BLOCKS", 1)
    monkeypatch.setattr(pipeline, "SPLIT_SAMPLES", 1)
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-trials", "40", "--n-channels", "6",
                 "--n-subjects", "2", "--seed", "5"]) == 0
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "seed": 11, "tasks": ["uw"], "output_dir": str(out),
        "covariance": {"input_size": 6},
        "cnn": {"epochs": 2, "batch_size": 16}, "lstm": {"epochs": 2, "batch_size": 16},
        "dae": {"epochs": 2, "batch_size": 16}, "gbt": {"n_estimators": 10, "max_depth": 3}}))
    trees = []
    for n in (1, 2):
        with workers(n):
            assert main(["train", "--config", str(cfg), "--container", str(data)]) == 0
        trees.append(_tree(out))
        out.rename(tmp_path / f"out{n}")
    assert trees[0].keys() == trees[1].keys() and len(trees[0]) > 3
    assert trees[0] == trees[1]


def test_crossval_forks_every_unit_from_a_one_thread_process(tmp_path, monkeypatch):
    data = tmp_path / "data"
    # 8 x 4096 samples a trial, so the feature pass splits its trials
    assert main(["synth", "--out", str(data), "--n-trials", "12", "--n-channels", "8",
                 "--n-times", "4096", "--n-subjects", "2", "--seed", "5"]) == 0
    assert 8 * 4096 >= pipeline.SPLIT_SAMPLES
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "seed": 11, "tasks": ["uw"], "output_dir": str(tmp_path / "out"),
        "covariance": {"input_size": 6}, "cnn": {"epochs": 0}, "lstm": {"epochs": 0},
        "dae": {"epochs": 0}, "gbt": {"n_estimators": 2}}))
    fork, start = os.fork, threading.Thread.start
    threads_at_fork, starts = [], []

    def recording_fork():
        threads_at_fork.append(threading.active_count())
        return fork()

    def recording_start(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    with workers(2):
        assert main(["crossval", "--config", str(cfg), "--container", str(data)]) == 0
    assert starts  # the feature pass ran on two threads
    assert threads_at_fork == [1, 1]  # one fork per subject's fold
