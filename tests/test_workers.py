"""The fork-worker helper, through the job that uses it, the temperature
sweep; and the gradient audit, which runs in this process on any CPU
count."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from longtail_kd import gradcheck, pipeline
from longtail_kd.data import LabeledDataset
from longtail_kd.gradcheck import run_gradient_checks
from longtail_kd.mlp import init_mlp
from longtail_kd.pipeline import temperature_sweep, train_teacher
from longtail_kd.workers import run_split
from test_cli import run, write_config
from test_data import _cpus
from test_pipeline import small_cfg, two_class_separable

TEMPS = [1.0, 2.0, 4.0, 0.5]


@pytest.fixture(scope="module")
def sweep_inputs():
    train, test = two_class_separable()
    teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
    return train, test, teacher, small_cfg(loss="bkd", epochs=3)


def count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_at(temperature, when_other=None):
    """A ``train_student`` that raises at ``temperature`` and otherwise calls
    ``when_other`` or trains as usual."""
    real = pipeline.train_student

    def train_student(train, test, teacher, cfg):
        if cfg.kd.temperature == temperature:
            raise RuntimeError(f"student at T={temperature:g} failed")
        if when_other is not None:
            when_other()
        return real(train, test, teacher, cfg)

    return train_student


# bytes each item of ``send_items`` sends: more than a pipe holds (64 KiB on Linux)
ITEM_BYTES = 256 << 10


def send_items(send, fail_at, start, stop):
    """A job: send ``ITEM_BYTES`` bytes of its own for each item in
    ``range(start, stop)``, raising at item ``fail_at``."""
    for item in range(start, stop):
        if item == fail_at:
            raise RuntimeError(f"item {item} failed")
        send(np.random.default_rng(item).bytes(ITEM_BYTES))


def test_run_split_passes_every_range_to_the_sink_in_range_order(monkeypatch):
    serial, parallel = bytearray(), bytearray()
    run_split([(0, 3)], send_items, None, serial.extend, None)
    forks = count_forks(monkeypatch)
    run_split([(0, 1), (1, 2), (2, 3)], send_items, None, parallel.extend, None)
    assert len(forks) == 2
    assert len(serial) == 3 * ITEM_BYTES
    assert parallel == serial
    assert_no_child_left()


def test_run_split_describes_a_failed_child_by_the_bytes_it_sent():
    # the child sends item 1, then fails at item 2
    described = []

    def describe(start, stop, n_sent):
        described.append((start, stop, n_sent))
        return "the worker"

    with pytest.raises(OSError, match=r"^the worker failed \(exit status 1\)$"):
        run_split([(0, 1), (1, 3)], send_items, describe, bytearray().extend, 2)
    assert described == [(1, 3, ITEM_BYTES)]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_rows_are_the_same_bits_on_any_cpu_count(sweep_inputs, monkeypatch, cpus):
    _cpus(monkeypatch, 1)
    serial = temperature_sweep(*sweep_inputs, TEMPS)
    _cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    rows = temperature_sweep(*sweep_inputs, TEMPS)
    assert len(forks) == cpus - 1
    assert [T for T, _ in rows] == TEMPS
    assert [acc.hex() for _, acc in rows] == [acc.hex() for _, acc in serial]
    assert_no_child_left()


@pytest.mark.parametrize("cpus, trials", [(1, 7), (2, 7), (3, 7), (8, 3)])
def test_gradient_audit_is_the_same_bits_on_any_cpu_count(monkeypatch, cpus, trials):
    _cpus(monkeypatch, 1)
    serial = run_gradient_checks(trials=trials, seed=4)
    _cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    worst = run_gradient_checks(trials=trials, seed=4)
    assert forks == []
    assert list(worst) == list(serial)
    assert [err.hex() for err in worst.values()] == [err.hex() for err in serial.values()]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_nan_gradient_is_the_worst_error(monkeypatch, capsys, cpus):
    # only trial 0's closed-form cb gradient is NaN, and the finite trials
    # after it must not replace it, on one CPU or three
    first_z = next(gradcheck._instances(5))[1]
    real = gradcheck.distill_grad_formula

    def distill_grad_formula(z, targets, y, ce_coef, kl_coef, temperature):
        g = real(z, targets, y, ce_coef, kl_coef, temperature)
        # cb's closed form is the one call with ce_coef 0
        return np.full_like(g, np.nan) if np.array_equal(z, first_z) and ce_coef == 0.0 else g

    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(gradcheck, "distill_grad_formula", distill_grad_formula)
    worst = run_gradient_checks(trials=5, seed=5)
    assert np.isnan(worst["cb_formula"])
    assert all(np.isfinite(err) for name, err in worst.items() if name != "cb_formula")
    assert run("gradcheck", "--trials", 5, "--seed", 5) == 2
    out = capsys.readouterr().out
    assert "cb_formula   max |analytic - finite difference| = nan  FAIL" in out
    assert out.splitlines()[-1] == "worst case: cb_formula at nan"
    assert_no_child_left()


def test_one_cpu_never_forks(sweep_inputs, monkeypatch):
    def no_fork():
        raise AssertionError("forked on a one-CPU affinity")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert len(temperature_sweep(*sweep_inputs, TEMPS)) == len(TEMPS)
    assert set(run_gradient_checks(trials=5, seed=0)) == {"ce", "cb", "kd", "bkd", "cb_formula", "kd_formula", "bkd_formula"}


@pytest.mark.parametrize("fault", ["teacher", "splits", "ce", "cb"])
def test_sweep_refuses_what_a_student_would_before_forking(sweep_inputs, monkeypatch, capsys, fault):
    # a forked child once raised these, printing its error before this
    # process did; a loss that reads no temperature once trained the same
    # student at every T
    def no_fork():
        raise AssertionError("forked before the sweep checked its inputs")

    train, test, teacher, cfg = sweep_inputs
    if fault in ("ce", "cb"):
        cfg = small_cfg(loss=fault, epochs=3)
        message = f"a temperature sweep needs a distillation loss (kd or bkd), got '{fault}'"
    elif fault == "teacher":
        teacher = init_mlp((train.dimension + 1, 12, train.num_classes), seed=0)
        message = f"teacher takes {train.dimension + 1} features but the data has {train.dimension}"
    else:
        test = LabeledDataset(np.hstack([test.features, test.features[:, :1]]), test.labels, test.num_classes)
        message = f"train/test feature dimensions differ: {train.dimension} vs {train.dimension + 1}"
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError) as info:
        temperature_sweep(train, test, teacher, cfg, TEMPS)
    assert str(info.value) == message
    assert capsys.readouterr().err == ""


def test_failed_child_names_its_temperature(sweep_inputs, monkeypatch):
    # two CPUs: this process trains T=1 and one child trains 2, 4 and 0.5;
    # the child sends the accuracy at 2, then fails at 4
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "train_student", raise_at(4.0))
    with pytest.raises(OSError, match=r"^the sweep worker training the student at T=4 failed \(exit status 1\)$"):
        temperature_sweep(*sweep_inputs, TEMPS)
    assert_no_child_left()


def test_failed_child_exits_the_cli_with_2(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "exp.cfg", epochs=2, data_dir=tmp_path / "data", out_dir=tmp_path / "out")
    assert run("make-data", "--config", cfg) == 0
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "train_student", raise_at(2.0))
    assert run("sweep-temp", "--config", cfg, "--temps", 1, 2, 4) == 2
    assert "the sweep worker training the student at T=2 failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()
    assert_no_child_left()


def test_failure_in_this_process_kills_and_reaps_the_children(sweep_inputs, monkeypatch):
    # the children would train for a minute; the sweep must not wait for them
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "train_student", raise_at(1.0, when_other=lambda: time.sleep(60)))
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="student at T=1 failed"):
        temperature_sweep(*sweep_inputs, TEMPS)
    assert time.monotonic() - began < 30
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open files")
def test_a_fork_that_fails_leaks_no_pipe(sweep_inputs, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        temperature_sweep(*sweep_inputs, TEMPS)
    assert sorted(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
def test_sweep_forks_safely_with_a_blas_thread_pool_alive():
    # OPENBLAS_NUM_THREADS=2 starts OpenBLAS's worker threads at import, so
    # the sweep forks a process that has more than one thread
    script = textwrap.dedent(
        """
        import os, sys
        sys.path[:0] = sys.argv[1:]
        from test_pipeline import small_cfg, two_class_separable
        from longtail_kd.pipeline import temperature_sweep, train_teacher

        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=3)
        rows = {}
        for cpus in (1, 2):
            os.sched_getaffinity = lambda pid, n=cpus: set(range(n))
            threads = len(os.listdir("/proc/self/task"))  # at the fork when cpus == 2
            rows[cpus] = [(T, acc.hex()) for T, acc in temperature_sweep(train, test, teacher, cfg, [1.0, 2.0])]
        assert rows[1] == rows[2], rows
        print(threads)
        """
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, "-c", script, src, here], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if int(done.stdout) < 2:
        pytest.skip("OpenBLAS started no thread pool: one CPU in the affinity mask")


def running(pid):
    """Whether process ``pid`` exists and has not exited (is no zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to see a process's state")
def test_a_child_stops_silently_once_its_caller_is_killed(tmp_path):
    # a child whose caller was SIGKILLed once worked to the end of its
    # range, then printed "worker process <pid>: BrokenPipeError(...)"
    script = textwrap.dedent(
        """
        import os, sys, time
        sys.path[:0] = sys.argv[2:]
        from longtail_kd import workers

        os.sched_getaffinity = lambda pid: {0, 1}  # two ranges, also on one CPU
        pid_file = sys.argv[1]

        def work(send, start, stop):
            if start:  # the child's range: say which process it is, then send for 30 s
                with open(pid_file + ".tmp", "w") as fh:
                    fh.write(str(os.getpid()))
                os.replace(pid_file + ".tmp", pid_file)
                for _ in range(3000):
                    send(b"x")
                    time.sleep(0.01)

        workers.run_split(workers.split(2), work, None, bytearray().extend)
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pid_file = tmp_path / "child.pid"
    with open(tmp_path / "stderr", "wb") as err:
        caller = subprocess.Popen([sys.executable, "-c", script, str(pid_file), src], stderr=err)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child = int(pid_file.read_text())
        caller.kill()
        caller.wait(timeout=10)
        deadline = time.monotonic() + 1
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not running(child)
    finally:
        caller.kill()
        caller.wait(timeout=10)
        if child is not None and running(child):
            os.kill(child, signal.SIGKILL)
    assert "worker process" not in (tmp_path / "stderr").read_text()
