import json
import re
import shutil

import numpy as np
import pytest

from longtail_kd import gradcheck
from longtail_kd.cli import main
from longtail_kd.gradcheck import run_gradient_checks
from test_data import _cpus
from test_pipeline import write_checkpoint_with_bad_fan_in


def run(*args):
    return main([str(a) for a in args])


def write_config(path, **overrides):
    base = {
        "C": 3,
        "d": 4,
        "rho": 10.0,
        "n_max": 60,
        "separation": 4.0,
        "per_class_test": 20,
        "data_seed": 5,
        "hidden_dims": "16",
        "loss": "bkd",
        "epochs": 6,
        "batch_size": 16,
        "lr": 0.05,
        "seed": 2,
        "beta": 0.999,
        "temperature": 2.0,
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def replace_test_split_with_a_wider_one(tmp, cfg, data_dir):
    """Make the data of ``cfg`` (d = 4), then copy a d = 5 test split over
    its test split."""
    assert run("make-data", "--config", cfg) == 0
    wide = write_config(tmp / "wide.cfg", d=5, data_dir=tmp / "wide", out_dir=tmp / "wide-out")
    assert run("make-data", "--config", wide) == 0
    for name in ("test.csv", "test.csv.bin"):
        shutil.copyfile(tmp / "wide" / name, data_dir / name)


def keep_header_only(path):
    """Cut a dataset file down to its header line and remove its sidecar."""
    path.write_text(path.read_text().splitlines()[0] + "\n")
    path.with_name(path.name + ".bin").unlink(missing_ok=True)


@pytest.fixture
def workspace(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "exp.cfg", data_dir=data_dir, out_dir=out_dir)
    return tmp_path, cfg, data_dir, out_dir


class TestMakeData:
    def test_writes_profile_with_requested_ratio(self, workspace, capsys):
        tmp, cfg, data_dir, _ = workspace
        assert run("make-data", "--config", cfg) == 0
        counts = dict(
            line.split(",")
            for line in (data_dir / "counts.csv").read_text().splitlines()[1:]
        )
        values = [int(v) for v in counts.values()]
        assert max(values) / min(values) == 10.0
        assert (data_dir / "train.csv").exists() and (data_dir / "test.csv").exists()
        assert (data_dir / "resolved_config.txt").exists()

    def test_balanced_when_rho_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", rho=1.0, data_dir=tmp_path / "d", out_dir=tmp_path / "o")
        assert run("make-data", "--config", cfg) == 0
        lines = (tmp_path / "d" / "counts.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",60") for line in lines)

    def test_rerun_identical_bytes(self, workspace):
        _, cfg, data_dir, _ = workspace
        assert run("make-data", "--config", cfg) == 0
        first = (data_dir / "train.csv").read_bytes()
        assert run("make-data", "--config", cfg) == 0
        assert (data_dir / "train.csv").read_bytes() == first

    @pytest.mark.parametrize(
        "key, value",
        [("C", 0), ("d", 1), ("rho", 0.5), ("n_max", 0), ("per_class_test", 0), ("separation", -1)],
    )
    def test_value_the_dataset_rejects_is_config_error(self, tmp_path, capsys, key, value):
        # refused before the data directory is made
        data_dir = tmp_path / "data"
        cfg = write_config(tmp_path / "bad.cfg", data_dir=data_dir, out_dir=tmp_path / "out", **{key: value})
        assert run("make-data", "--config", cfg) == 1
        assert "config error" in capsys.readouterr().err
        assert not data_dir.exists()


class TestTrain:
    def test_teacher_then_bkd_student(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        assert (out_dir / "teacher.ckpt").exists()
        assert run(
            "train", "--config", cfg, "--role", "student",
            "--teacher", out_dir / "teacher.ckpt",
        ) == 0
        report = json.loads((out_dir / "student_report.json").read_text())
        assert "few" in report and 0.0 <= report["few"] <= 1.0
        metrics = (out_dir / "student_metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,loss,lr,acc_all,acc_many,acc_medium,acc_few"
        assert len(metrics) == 7  # header + 6 epochs

    def test_student_without_teacher_is_usage_error(self, workspace, capsys):
        _, cfg, *_ = workspace
        assert run("train", "--config", cfg, "--role", "student") == 1
        assert "--teacher" in capsys.readouterr().err

    def test_teacher_flag_with_teacher_role_is_usage_error(self, workspace, capsys):
        # refused before any data is read: the data directory does not exist
        _, cfg, _, out_dir = workspace
        assert run("train", "--config", cfg, "--role", "teacher", "--teacher", "absent.ckpt") == 1
        assert capsys.readouterr().err == "error: --teacher is only valid with --role student\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "teacher_data, message",
        [
            ("wide", "teacher takes 5 features but the data has 4"),
            ("four", "teacher emits 4 classes but the data has 3"),
            (None, "checkpoint not found"),
        ],
    )
    def test_teacher_that_does_not_fit_is_refused_before_out_dir(self, tmp_path, capsys, teacher_data, message):
        teacher = tmp_path / "absent.ckpt"
        if teacher_data is not None:
            shape = {"wide": {"d": 5}, "four": {"C": 4}}[teacher_data]
            other = write_config(
                tmp_path / "other.cfg", data_dir=tmp_path / "other", out_dir=tmp_path / "other-out", **shape
            )
            assert run("make-data", "--config", other) == 0
            assert run("train", "--config", other, "--role", "teacher") == 0
            teacher = tmp_path / "other-out" / "teacher.ckpt"
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("make-data", "--config", cfg) == 0
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "student", "--teacher", teacher) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_mismatched_splits_refused_before_out_dir(self, workspace, capsys):
        tmp, cfg, data_dir, out_dir = workspace
        replace_test_split_with_a_wider_one(tmp, cfg, data_dir)
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        assert capsys.readouterr().err == "error: train/test feature dimensions differ: 4 vs 5\n"
        assert not out_dir.exists()

    def test_empty_test_split_refused_before_out_dir(self, workspace, capsys):
        # a header-only test split once trained a full epoch, then exited 2
        # with out/resolved_config.txt left behind
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        keep_header_only(data_dir / "test.csv")
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        assert capsys.readouterr().err == "error: the test split has no samples to evaluate\n"
        assert not out_dir.exists()

    def test_cb_baseline_completes_with_finite_losses(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        cb_cfg = write_config(out_dir.parent / "cb.cfg", loss="cb",
                              data_dir=data_dir, out_dir=out_dir)
        assert run("train", "--config", cb_cfg, "--role", "teacher") == 0
        assert run(
            "train", "--config", cb_cfg, "--role", "student",
            "--teacher", out_dir / "teacher.ckpt",
        ) == 0
        rows = (out_dir / "student_metrics.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert all(np.isfinite(losses))

    def test_defer_epoch_config_trains_teacher_student_and_sweep(self, tmp_path):
        # the teacher drops defer_epoch, so its config and checkpoint equal
        # those of the same config without the key
        data_dir = tmp_path / "data"
        plain = write_config(tmp_path / "plain.cfg", epochs=3, data_dir=data_dir, out_dir=tmp_path / "plain")
        cfg = write_config(tmp_path / "defer.cfg", epochs=3, defer_epoch=1, data_dir=data_dir, out_dir=tmp_path / "out")
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        assert run("train", "--config", plain, "--role", "teacher") == 0
        teacher = tmp_path / "out" / "teacher.ckpt"
        assert teacher.read_bytes() == (tmp_path / "plain" / "teacher.ckpt").read_bytes()
        assert run("train", "--config", cfg, "--role", "student", "--teacher", teacher) == 0
        assert run("sweep-temp", "--config", cfg, "--temps", 2) == 0

    def test_resolved_config_reruns_the_command_byte_for_byte(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        names = ("resolved_config.txt", "teacher.ckpt", "teacher_metrics.csv", "teacher_report.json")
        first = {name: (out_dir / name).read_bytes() for name in names}
        assert run("train", "--config", out_dir / "resolved_config.txt", "--role", "teacher") == 0
        assert {name: (out_dir / name).read_bytes() for name in names} == first

    def test_missing_data_is_runtime_error(self, workspace):
        _, cfg, *_ = workspace
        assert run("train", "--config", cfg, "--role", "teacher") == 2

    def test_determinism_across_runs(self, tmp_path):
        data_dir = tmp_path / "data"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path / "a.cfg", data_dir=data_dir, out_dir=out_a)
        cfg_b = write_config(tmp_path / "b.cfg", data_dir=data_dir, out_dir=out_b)
        assert run("make-data", "--config", cfg_a) == 0
        assert run("train", "--config", cfg_a, "--role", "teacher") == 0
        assert run("train", "--config", cfg_b, "--role", "teacher") == 0
        for name in ("teacher.ckpt", "teacher_metrics.csv", "teacher_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestEval:
    def test_memorization_run_scores_one(self, tmp_path):
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        cfg = write_config(
            tmp_path / "m.cfg", C=2, n_max=20, rho=1.0, separation=9.0,
            per_class_test=10, epochs=25, data_dir=data_dir, out_dir=out_dir,
        )
        assert run("make-data", "--config", cfg) == 0
        # tiny, perfectly separated problem: evaluate on the train split itself
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        assert run(
            "eval", "--ckpt", out_dir / "teacher.ckpt",
            "--data", data_dir / "train.csv", "--config", cfg,
        ) == 0
        report = json.loads((out_dir / "eval_report.json").read_text())
        assert report["overall"] == 1.0
        conf = (out_dir / "confusion_counts.csv").read_text().splitlines()
        assert conf[0] == "true\\pred,0,1"
        assert (out_dir / "confusion_rownorm.csv").exists()

    def test_missing_checkpoint_is_runtime_error(self, workspace):
        tmp, cfg, data_dir, _ = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run(
            "eval", "--ckpt", tmp / "nope.ckpt", "--data", data_dir / "test.csv", "--config", cfg,
        ) == 2


    def test_corrupt_parameter_blob_is_runtime_error_naming_the_file(self, workspace, capsys):
        tmp, cfg, data_dir, _ = workspace
        ckpt = write_checkpoint_with_bad_fan_in(str(tmp / "bad-layer.ckpt"))
        assert run("eval", "--ckpt", ckpt, "--data", data_dir / "test.csv", "--config", cfg) == 2
        assert f"error: {ckpt}: " in capsys.readouterr().err

    @pytest.mark.parametrize("mismatch", ["data", "train split"])
    def test_class_count_mismatch_refused(self, workspace, capsys, mismatch):
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        four = write_config(tmp / "four.cfg", C=4, data_dir=tmp / "data4", out_dir=tmp / "out4")
        assert run("make-data", "--config", four) == 0
        capsys.readouterr()
        if mismatch == "data":
            args = ("--data", tmp / "data4" / "test.csv", "--config", cfg)
        else:
            args = ("--data", data_dir / "test.csv", "--config", four)
        assert run("eval", "--ckpt", out_dir / "teacher.ckpt", *args) == 2
        assert f"checkpoint emits 3 classes but the {mismatch} has 4" in capsys.readouterr().err
        assert not (tmp / "out4" / "eval_report.json").exists()
        assert not (out_dir / "eval_report.json").exists()


    def test_input_width_mismatch_refused_before_out_dir(self, workspace, capsys):
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        wide = write_config(tmp / "wide.cfg", d=5, data_dir=tmp / "wide", out_dir=tmp / "wide-out")
        assert run("make-data", "--config", wide) == 0
        capsys.readouterr()
        args = ("--ckpt", out_dir / "teacher.ckpt", "--data", tmp / "wide" / "test.csv", "--config", wide)
        assert run("eval", *args) == 2
        assert "checkpoint takes 4 features but the data has 5" in capsys.readouterr().err
        assert not (tmp / "wide-out").exists()


    def test_empty_data_refused_before_out_dir(self, workspace, capsys):
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        empty = tmp / "empty.csv"
        shutil.copyfile(data_dir / "test.csv", empty)
        keep_header_only(empty)
        other = write_config(tmp / "other.cfg", data_dir=data_dir, out_dir=tmp / "other-out")
        capsys.readouterr()
        assert run("eval", "--ckpt", out_dir / "teacher.ckpt", "--data", empty, "--config", other) == 2
        assert capsys.readouterr().err == f"error: {empty} has no samples to evaluate\n"
        assert not (tmp / "other-out").exists()


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert run("gradcheck", "--trials", 100, "--seed", 1) == 0
        out = capsys.readouterr().out
        for name in ("ce", "cb", "kd", "bkd", "cb_formula", "kd_formula", "bkd_formula"):
            assert name in out
        assert "worst case" in out

    def test_one_finite_difference_per_loss_and_trial(self, monkeypatch):
        # on one CPU every trial runs here, where the calls can be counted
        calls = []
        real = gradcheck.finite_difference_gradient

        def counting(f, z):
            calls.append(1)
            return real(f, z)

        _cpus(monkeypatch, 1)
        monkeypatch.setattr(gradcheck, "finite_difference_gradient", counting)
        worst = run_gradient_checks(trials=6, seed=3)
        assert len(calls) == 4 * 6
        assert max(worst.values()) <= 1e-6

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_is_usage_error(self, capsys, trials):
        assert run("gradcheck", "--trials", trials) == 1
        captured = capsys.readouterr()
        assert "--trials must be at least 1" in captured.err
        assert "ok" not in captured.out

    @pytest.mark.parametrize("trials", [0, -3])
    def test_library_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_gradient_checks(trials=trials)


class TestSweepTemp:
    def test_four_temps_four_rows(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("sweep-temp", "--config", cfg, "--temps", 1, 2, 3, 4) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert rows[0] == "temperature,accuracy"
        assert len(rows) == 5
        accs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)

    @pytest.mark.parametrize("temp", ["0", "-1", "nan", "inf"])
    def test_bad_temperature_is_usage_error_before_any_data_is_read(self, tmp_path, capsys, temp):
        # the data directory does not exist, so reading it or training a
        # teacher would exit 2
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 2, temp) == 1
        assert "--temps: temperature must be a positive finite real" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_zero_epochs_is_config_error_before_any_data_is_read(self, tmp_path, capsys):
        # the sweep reports each student's last epoch; the data directory
        # does not exist, so reading it would exit 2
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", epochs=0, data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 2) == 1
        assert capsys.readouterr().err == "config error: a temperature sweep needs at least one training epoch\n"
        # a bad --temps is still reported first, as a usage error
        assert run("sweep-temp", "--config", cfg, "--temps", 0) == 1
        assert "--temps: temperature must be a positive finite real" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_mismatched_splits_refused_before_out_dir(self, workspace, capsys):
        tmp, cfg, data_dir, out_dir = workspace
        replace_test_split_with_a_wider_one(tmp, cfg, data_dir)
        capsys.readouterr()
        assert run("sweep-temp", "--config", cfg, "--temps", 2) == 2
        assert capsys.readouterr().err == "error: train/test feature dimensions differ: 4 vs 5\n"
        assert not out_dir.exists()

    def test_duplicate_temps_identical(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("sweep-temp", "--config", cfg, "--temps", 2, 2) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[1] == rows[1].split(",")[1]


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert run("make-data", "--config", cfg) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = fast\n")
        assert run("make-data", "--config", cfg) == 1

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 5\nepochs = 6\n")
        assert run("make-data", "--config", cfg) == 1

    def test_missing_config_file(self, tmp_path):
        assert run("make-data", "--config", tmp_path / "absent.cfg") == 1

    def test_comments_and_blank_lines_ok(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a comment\n\nepochs = 3  # trailing comment\n")
        data_dir = tmp_path / "d"
        full = write_config(tmp_path / "full.cfg", data_dir=data_dir, out_dir=tmp_path / "o")
        assert run("make-data", "--config", full) == 0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", 0), ("momentum", 1.5), ("temperature", -1), ("weight_decay", "nan"), ("weight_decay", "inf"),
            # against the default pair (100, 20): inverted, equal, non-positive
            ("many_thresh", 10), ("few_thresh", 100), ("few_thresh", 0),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("train", "--role", "teacher"),
            ("sweep-temp", "--temps", 2),
            ("eval", "--ckpt", "absent.ckpt", "--data", "absent.csv"),
        ],
    )
    def test_value_the_training_config_rejects_is_config_error(self, tmp_path, capsys, key, value, command):
        # refused before any data is read: the data directory does not exist
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "bad.cfg", data_dir=tmp_path / "data", out_dir=out_dir, **{key: value})
        assert run(command[0], "--config", cfg, *command[1:]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("steps", ["1:0", "1:-0.5", "2:0.5,3:nan", "1:inf", "-1:0.5"])
    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_bad_step_schedule_is_config_error_before_any_data_is_read(self, tmp_path, capsys, steps, role):
        # a factor of 0 once trained epoch 0 and then exited 2, leaving out/
        # behind; the data directory and the teacher checkpoint do not exist
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path / "bad.cfg", schedule="step", lr_steps=steps, data_dir=tmp_path / "data", out_dir=out_dir
        )
        assert run("train", "--config", cfg, "--role", role, "--teacher", tmp_path / "absent.ckpt") == 1
        assert re.fullmatch(r"config error: (step factors|each step epoch) must be .*\n", capsys.readouterr().err)
        assert not out_dir.exists()

    def test_config_that_is_not_utf8_is_config_error_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(f"data_dir = {tmp_path / 'data'}\n".encode() + b"# caf\xe9\n")
        assert run("make-data", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: not UTF-8 text")
        assert not (tmp_path / "data").exists()

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_removed_workers_flag_unrecognised(self, workspace, capsys):
        _, cfg, *_ = workspace
        assert run("train", "--config", cfg, "--role", "teacher", "--workers", 0) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ("make-data",),
            ("train", "--role", "teacher"),
            ("eval", "--ckpt", "absent.ckpt", "--data", "absent.csv"),
            ("sweep-temp", "--temps", 2),
        ],
    )
    def test_removed_out_flag_unrecognised(self, workspace, capsys, command):
        # directories come only from data_dir and out_dir, so the resolved
        # config names the directory every output went to
        tmp, cfg, data_dir, out_dir = workspace
        elsewhere = tmp / "elsewhere"
        assert run(command[0], "--config", cfg, *command[1:], "--out", elsewhere) == 1
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not any(d.exists() for d in (data_dir, out_dir, elsewhere))

    def test_removed_kind_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = gaussian\n")
        assert run("make-data", "--config", cfg) == 1
        assert "unknown key" in capsys.readouterr().err
