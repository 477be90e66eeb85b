import json

import numpy as np
import pytest

from longtail_kd.cli import main
from longtail_kd.gradcheck import run_gradient_checks


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


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert run("gradcheck", "--trials", 100, "--seed", 1) == 0
        out = capsys.readouterr().out
        for name in ("ce", "cb", "kd", "bkd", "cb_formula", "bkd_formula"):
            assert name in out
        assert "worst case" in out

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

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_removed_workers_flag_unrecognised(self, workspace, capsys):
        _, cfg, *_ = workspace
        assert run("train", "--config", cfg, "--role", "teacher", "--workers", 0) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_kind_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = gaussian\n")
        assert run("make-data", "--config", cfg) == 1
        assert "unknown key" in capsys.readouterr().err
