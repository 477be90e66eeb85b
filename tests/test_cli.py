import json
import os
import re
import shutil

import numpy as np
import pytest

from longtail_kd import cli, data, evaluate, gradcheck, pipeline
from longtail_kd.cli import main
from longtail_kd.config import default_config, imbalance_profile, parse_config, render_config, train_config
from longtail_kd.data import ImbalanceProfile, LabeledDataset, load_dataset, save_dataset
from longtail_kd.gradcheck import run_gradient_checks
from longtail_kd.mathutils import Rng
from longtail_kd.mlp import MlpParams, init_mlp, params_to_bytes
from longtail_kd.pipeline import TrainConfig
from test_data import _reference_file
from test_pipeline import OVERFLOWING_EVALUATION, count_epochs, stop_after, write_checkpoint_with_bad_width


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
    shutil.copyfile(tmp / "wide" / "test.csv.bin", data_dir / "test.csv.bin")


def save_empty_split(source, path):
    """Save at ``path`` a split with the classes and width of the dataset at ``source`` and no rows."""
    split = load_dataset(str(source))
    save_dataset(LabeledDataset(split.features[:0], split.labels[:0], split.num_classes), str(path))


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
        assert sorted(os.listdir(data_dir)) == ["counts.csv", "resolved_config.txt", "test.csv.bin", "train.csv.bin"]

    def test_balanced_when_rho_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", rho=1.0, data_dir=tmp_path / "d", out_dir=tmp_path / "o")
        assert run("make-data", "--config", cfg) == 0
        lines = (tmp_path / "d" / "counts.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",60") for line in lines)

    def test_rerun_identical_bytes(self, workspace):
        _, cfg, data_dir, _ = workspace
        assert run("make-data", "--config", cfg) == 0
        first = (data_dir / "train.csv.bin").read_bytes()
        assert run("make-data", "--config", cfg) == 0
        assert (data_dir / "train.csv.bin").read_bytes() == first

    @pytest.mark.parametrize("kind", ["file", "directory"])
    @pytest.mark.parametrize("split", ["train.csv", "test.csv"])
    def test_older_csv_of_a_split_left_alone_and_never_read(self, workspace, split, kind):
        # make-data commits each split as ``<name>.bin`` alone: an older
        # CSV text, or a directory, at ``<name>`` stays as it was, and the
        # split loads the bits of its .bin file
        _, cfg, data_dir, _ = workspace
        stale = data_dir / split
        data_dir.mkdir()
        if kind == "file":
            stale.write_bytes(b"longtail-csv v2, C=2, d=1\n0,+1.00000000e+00\n")
        else:
            stale.mkdir()
        assert run("make-data", "--config", cfg) == 0
        if kind == "file":
            assert stale.read_bytes() == b"longtail-csv v2, C=2, d=1\n0,+1.00000000e+00\n"
        else:
            assert stale.is_dir() and not os.listdir(stale)
        assert sorted(os.listdir(data_dir)) == sorted(
            ["counts.csv", "resolved_config.txt", "test.csv.bin", "train.csv.bin", split]
        )
        loaded = load_dataset(str(stale))
        assert (data_dir / f"{split}.bin").read_bytes() == _reference_file(loaded)

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
        "args, message",
        [
            (("--role", "student"), "--role student requires --teacher <checkpoint>"),
            (("--role", "teacher", "--teacher", "absent.ckpt"), "--teacher is only valid with --role student"),
        ],
        ids=["student-without-teacher", "teacher-with-teacher"],
    )
    def test_role_usage_error_wins_over_a_bad_config_file(self, tmp_path, capsys, args, message):
        # both checks read only the arguments, so the config is not read
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs = fast\n")
        for cfg in (bad, tmp_path / "absent.cfg"):
            assert run("train", "--config", cfg, *args) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "teacher_data, message",
        [
            ("wide", "{teacher} takes 5 features but {data}/test.csv has 4"),
            ("four", "{teacher} emits 4 classes but {data}/test.csv has 3"),
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
        assert message.format(teacher=teacher, data=tmp_path / "data") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_mismatched_splits_refused_before_out_dir(self, workspace, capsys):
        tmp, cfg, data_dir, out_dir = workspace
        replace_test_split_with_a_wider_one(tmp, cfg, data_dir)
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        assert capsys.readouterr().err == (
            f"error: {data_dir / 'train.csv'}, {data_dir / 'test.csv'}: train/test feature dimensions differ: 4 vs 5\n"
        )
        assert not out_dir.exists()

    def test_empty_test_split_refused_before_out_dir(self, workspace, capsys):
        # an empty test split once trained a full epoch, then exited 2
        # with out/resolved_config.txt left behind
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        save_empty_split(data_dir / "test.csv", data_dir / "test.csv")
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        assert capsys.readouterr().err == (
            f"error: {data_dir / 'train.csv'}, {data_dir / 'test.csv'}: the test split has no samples to evaluate\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("suffix", ["", ".tmp"], ids=["path", "temporary-file"])
    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_checkpoint_path_that_is_a_directory_is_refused_before_training(
        self, workspace, capsys, monkeypatch, role, suffix
    ):
        # a directory in the checkpoint's place, or in that of the temporary
        # file it is written to, once trained every epoch, then failed on
        # the rename or the open with out/resolved_config.txt left behind
        tmp, cfg, _, out_dir = workspace
        epochs = count_epochs(monkeypatch)
        assert run("make-data", "--config", cfg) == 0
        teacher = []
        if role == "student":
            assert run("train", "--config", cfg, "--role", "teacher") == 0
            assert len(epochs) == 6  # the counter sees every epoch
            epochs.clear()
            teacher = ["--teacher", tmp / "teacher.ckpt"]
            shutil.move(out_dir / "teacher.ckpt", teacher[1])
            shutil.rmtree(out_dir)
        ckpt = out_dir / f"{role}.ckpt"
        adir = out_dir / f"{role}.ckpt{suffix}"
        adir.mkdir(parents=True)
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", role, *teacher) == 2
        reason = f"its temporary file {adir} is a directory" if suffix else "Is a directory"
        assert capsys.readouterr().err == f"error: {ckpt}: cannot write the checkpoint: {reason}\n"
        assert epochs == []
        assert os.listdir(out_dir) == [adir.name]
        assert os.listdir(adir) == []

    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_each_model_is_scored_once_and_the_last_epoch_is_the_report(self, tmp_path, work, role):
        # train once predicted the test split again after its last epoch,
        # on the parameters that epoch had just scored
        args, out_dir = planned_run(tmp_path, role)
        for calls in work.values():
            calls.clear()
        assert run(*args) == 0
        assert len(work["epochs"]) == len(work["predictions"]) == 6
        assert (out_dir / f"{role}_report.json").read_text() == evaluate.report_to_json(work["epochs"][-1])

    def test_teacher_of_no_epoch_reports_what_eval_reports(self, tmp_path, work):
        # no epoch scored the model, so train scores it itself, once
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        cfg = write_config(tmp_path / "zero.cfg", epochs=0, data_dir=data_dir, out_dir=out_dir)
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        assert work["epochs"] == []
        assert len(work["predictions"]) == 1
        assert (out_dir / "teacher_metrics.csv").read_text() == pipeline.METRIC_HEADER + "\n"
        assert run("eval", "--ckpt", out_dir / "teacher.ckpt", "--data", data_dir / "test.csv", "--config", cfg) == 0
        assert (out_dir / "teacher_report.json").read_bytes() == (out_dir / "eval_report.json").read_bytes()

    def test_non_finite_test_logits_exit_2_with_no_artifact(self, tmp_path, capsys):
        # the run once exited 0, printing accuracies of argmax classes made
        # of non-finite logits, and committed its checkpoint and report
        cfg, out_dir = tmp_path / "exp.cfg", tmp_path / "out"
        cfg.write_text(
            render_config({**default_config(), **OVERFLOWING_EVALUATION, "data_dir": tmp_path / "data", "out_dir": out_dir})
        )
        assert run("make-data", "--config", cfg) == 0
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        assert capsys.readouterr().err == "error: training diverged: non-finite test logits at epoch 0\n"
        assert os.listdir(out_dir) == ["resolved_config.txt"]

    @pytest.mark.parametrize("setting", [{"lr": 1e150}, {"weight_decay": 1e300}], ids=["lr", "weight_decay"])
    def test_non_finite_loss_exit_2_in_one_line(self, tmp_path, capsys, setting):
        # the refusal once came after numpy's warnings and named the batch
        cfg = write_config(tmp_path / "exp.cfg", data_dir=tmp_path / "data", out_dir=tmp_path / "out", **setting)
        assert run("make-data", "--config", cfg) == 0
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        assert capsys.readouterr().err == "error: training diverged: non-finite loss at epoch 0\n"
        assert os.listdir(tmp_path / "out") == ["resolved_config.txt"]

    def test_teacher_with_overflowing_logits_refused_in_one_line(self, tmp_path, capsys):
        # the refusal once came after numpy's warning and printed every row
        # of the teacher's logits on the training split
        cfg = write_config(
            tmp_path / "exp.cfg", n_max=64, rho=16.0, hidden_dims="8", data_dir=tmp_path / "data", out_dir=tmp_path / "out"
        )
        assert run("make-data", "--config", cfg) == 0
        params = init_mlp((4, 8, 3), 0)
        params.flat *= 1e30  # finite in float32, as a checkpoint stores it; the logits overflow
        ckpt = str(tmp_path / "huge.ckpt")
        pipeline.write_checkpoint(ckpt, pipeline.RunState(params, MlpParams.zeros(params.dims), Rng(1), [], bytes(32)))
        capsys.readouterr()
        assert run("train", "--config", cfg, "--role", "student", "--teacher", ckpt) == 2
        assert capsys.readouterr().err == "error: the teacher gives non-finite logits on the training split\n"

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

    def test_teacher_of_a_kd_config_is_that_of_the_ce_config(self, tmp_path):
        # the teacher drops the student's loss and distillation settings, so
        # its checkpoint equals that of the ce config; the kd config then
        # trains a student and sweeps temperatures against it
        data_dir = tmp_path / "data"
        plain = write_config(tmp_path / "ce.cfg", loss="ce", epochs=3, data_dir=data_dir, out_dir=tmp_path / "ce")
        cfg = write_config(
            tmp_path / "kd.cfg", loss="kd", alpha=0.25, temperature=3.0, epochs=3,
            data_dir=data_dir, out_dir=tmp_path / "out",
        )
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        assert run("train", "--config", plain, "--role", "teacher") == 0
        teacher = tmp_path / "out" / "teacher.ckpt"
        assert teacher.read_bytes() == (tmp_path / "ce" / "teacher.ckpt").read_bytes()
        assert run("train", "--config", cfg, "--role", "student", "--teacher", teacher) == 0
        assert run("sweep-temp", "--config", cfg, "--temps", 2, "--teacher", teacher) == 0

    def test_library_resumes_the_teacher_checkpoint_under_the_same_config_file(self, tmp_path):
        # the library once resolved the file to its student config and
        # refused the teacher's checkpoint as "written under a different
        # training config"
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        cfg = write_config(tmp_path / "student.cfg", epochs=3, data_dir=data_dir, out_dir=out_dir)
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        train, test = (load_dataset(str(data_dir / name)) for name in ("train.csv", "test.csv"))
        ckpt = str(out_dir / "teacher.ckpt")
        tcfg = train_config(parse_config(cfg))
        params, log = stop_after(tcfg.epochs, train, test, tcfg, resume_from=ckpt)
        assert params_to_bytes(params) == params_to_bytes(pipeline.read_checkpoint(ckpt).params)
        assert pipeline.metrics_to_csv(log) == (out_dir / "teacher_metrics.csv").read_text()

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
    def test_memorization_run_scores_one(self, tmp_path, monkeypatch):
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        cfg = write_config(
            tmp_path / "m.cfg", C=2, n_max=20, rho=1.0, separation=9.0,
            per_class_test=10, epochs=25, data_dir=data_dir, out_dir=out_dir,
        )
        assert run("make-data", "--config", cfg) == 0
        # tiny, perfectly separated problem: evaluate on the train split itself
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        # the report and both confusion files come from one tally; eval
        # once tallied the same pairs twice
        tallies = []
        confusion_matrix = evaluate.confusion_matrix

        def counted(*args):
            tallies.append(args)
            return confusion_matrix(*args)

        monkeypatch.setattr(evaluate, "confusion_matrix", counted)
        assert run(
            "eval", "--ckpt", out_dir / "teacher.ckpt",
            "--data", data_dir / "train.csv", "--config", cfg,
        ) == 0
        assert len(tallies) == 1
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
        ckpt = write_checkpoint_with_bad_width(str(tmp / "bad-layer.ckpt"))
        assert run("eval", "--ckpt", ckpt, "--data", data_dir / "test.csv", "--config", cfg) == 2
        assert f"error: {ckpt}: each layer width must be a positive integer, got 0" in capsys.readouterr().err

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
        split = {"data": "test.csv", "train split": "train.csv"}[mismatch]
        assert f"{out_dir / 'teacher.ckpt'} emits 3 classes but {tmp / 'data4' / split} has 4" in capsys.readouterr().err
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
        assert f"{out_dir / 'teacher.ckpt'} takes 4 features but {tmp / 'wide' / 'test.csv'} has 5" in capsys.readouterr().err
        assert not (tmp / "wide-out").exists()


    def test_empty_data_refused_before_out_dir(self, workspace, capsys):
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        empty = tmp / "empty.csv"
        save_empty_split(data_dir / "test.csv", empty)
        other = write_config(tmp / "other.cfg", data_dir=data_dir, out_dir=tmp / "other-out")
        capsys.readouterr()
        assert run("eval", "--ckpt", out_dir / "teacher.ckpt", "--data", empty, "--config", other) == 2
        assert capsys.readouterr().err == f"error: {data_dir / 'train.csv'}, {empty}: the test split has no samples to evaluate\n"
        assert not (tmp / "other-out").exists()

    def test_train_split_with_an_empty_class_refused_before_out_dir(self, workspace, capsys):
        # train and sweep-temp refused this data directory, while eval once
        # scored on it and exited 0
        tmp, cfg, data_dir, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        train = load_dataset(str(data_dir / "train.csv"))
        kept = train.labels != 2
        save_dataset(LabeledDataset(train.features[kept], train.labels[kept], 3), str(data_dir / "train.csv"))
        other = write_config(tmp / "other.cfg", data_dir=data_dir, out_dir=tmp / "other-out")
        capsys.readouterr()
        assert run("eval", "--ckpt", out_dir / "teacher.ckpt", "--data", data_dir / "test.csv", "--config", other) == 2
        assert capsys.readouterr().err == (
            f"error: {data_dir / 'train.csv'}, {data_dir / 'test.csv'}: every class needs at least one training sample\n"
        )
        assert not (tmp / "other-out").exists()

    def test_non_finite_logits_are_refused_naming_the_checkpoint_and_the_data(self, workspace, capsys):
        # the refusal once named neither file
        tmp, cfg, data_dir, _ = workspace
        assert run("make-data", "--config", cfg) == 0
        params = init_mlp((4, 8, 3), 0)
        params.flat *= 1e30  # finite in float32, as a checkpoint stores it; the logits overflow
        ckpt = str(tmp / "huge.ckpt")
        pipeline.write_checkpoint(ckpt, pipeline.RunState(params, MlpParams.zeros(params.dims), Rng(1), [], bytes(32)))
        capsys.readouterr()
        assert run("eval", "--ckpt", ckpt, "--data", data_dir / "test.csv", "--config", cfg) == 2
        assert capsys.readouterr().err == f"error: {ckpt}, {data_dir / 'test.csv'}: the model gives non-finite logits\n"


class TestGradcheck:
    def test_one_trial_is_enough(self, capsys):
        assert run("gradcheck", "--trials", 1) == 0
        assert "gradient check: 1 trials" in capsys.readouterr().out

    def test_passes_and_reports(self, capsys):
        assert run("gradcheck", "--trials", 100, "--seed", 1) == 0
        out = capsys.readouterr().out
        for name in ("ce", "cb", "kd", "bkd", "cb_formula", "kd_formula", "bkd_formula"):
            assert name in out
        assert "worst case" in out

    def test_one_finite_difference_per_loss_and_trial(self, monkeypatch):
        calls = []
        real = gradcheck._finite_differences

        def counting(objective, z, y):
            calls.append(1)
            return real(objective, z, y)

        monkeypatch.setattr(gradcheck, "_finite_differences", counting)
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
            run_gradient_checks(trials=trials, seed=0)


def sweep_inputs(cfg, out_dir):
    """Make the data of ``cfg`` and train its teacher; the checkpoint's path."""
    assert run("make-data", "--config", cfg) == 0
    assert run("train", "--config", cfg, "--role", "teacher") == 0
    return out_dir / "teacher.ckpt"


class TestSweepTemp:
    def test_four_temps_four_rows(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        teacher = sweep_inputs(cfg, out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 1, 2, 3, 4, "--teacher", teacher) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert rows[0] == "temperature,accuracy"
        assert len(rows) == 5
        accs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_sweep_of_the_teacher_checkpoint_is_the_library_sweep(self, workspace):
        # sweep-temp once trained its own teacher, unsaved, when given none;
        # the checkpoint of train --role teacher gives that sweep's table
        _, cfg, data_dir, out_dir = workspace
        teacher = sweep_inputs(cfg, out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 1, 2, 4, "--teacher", teacher) == 0
        tcfg = train_config(parse_config(cfg))
        train, test = (load_dataset(str(data_dir / name)) for name in ("train.csv", "test.csv"))
        rows = pipeline.temperature_sweep(train, test, pipeline.train_teacher(train, test, tcfg)[0], tcfg, [1, 2, 4])
        assert (out_dir / "sweep.csv").read_text() == evaluate.sweep_to_csv(rows)

    def test_missing_teacher_is_usage_error_before_the_config_is_read(self, tmp_path, capsys):
        # the sweep once trained a teacher of its own; neither the config
        # nor the data directory exists, so reading either would fail
        assert run("sweep-temp", "--config", tmp_path / "absent.cfg", "--temps", 2) == 1
        assert capsys.readouterr().err == "error: the following arguments are required: --teacher\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("temp", ["0", "-1", "nan", "inf"])
    def test_bad_temperature_is_usage_error_before_any_data_is_read(self, tmp_path, capsys, temp):
        # neither the data directory nor the teacher exists, so reading
        # either would exit 2
        out_dir, teacher = tmp_path / "out", tmp_path / "absent.ckpt"
        cfg = write_config(tmp_path / "exp.cfg", data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 2, temp, "--teacher", teacher) == 1
        assert "--temps: temperature must be a positive finite real" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_zero_epochs_is_config_error_before_any_data_is_read(self, tmp_path, capsys):
        # the sweep reports each student's last epoch; neither the data
        # directory nor the teacher exists, so reading either would exit 2
        out_dir, teacher = tmp_path / "out", tmp_path / "absent.ckpt"
        cfg = write_config(tmp_path / "exp.cfg", epochs=0, data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 2, "--teacher", teacher) == 1
        assert capsys.readouterr().err == "config error: a temperature sweep needs at least one training epoch\n"
        # a bad --temps is still reported first, as a usage error
        assert run("sweep-temp", "--config", cfg, "--temps", 0, "--teacher", teacher) == 1
        assert "--temps: temperature must be a positive finite real" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("loss", ["ce", "cb"])
    def test_loss_without_a_temperature_is_config_error_before_any_data_is_read(self, tmp_path, capsys, loss):
        # ce and cb never read T, so the sweep once wrote one identical row
        # per temperature; neither the data directory nor the teacher
        # exists, so reading either would exit 2
        out_dir, teacher = tmp_path / "out", tmp_path / "absent.ckpt"
        cfg = write_config(tmp_path / "exp.cfg", loss=loss, data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 1, 2, 4, 8, "--teacher", teacher) == 1
        assert capsys.readouterr().err == (
            f"config error: a temperature sweep needs a distillation loss (kd or bkd), got '{loss}'\n"
        )
        assert not out_dir.exists()

    def test_mismatched_splits_refused_before_out_dir(self, workspace, capsys):
        # the teacher of the data as made takes 4 features, and the test
        # split is checked against it first
        tmp, cfg, data_dir, out_dir = workspace
        teacher = tmp / "teacher.ckpt"
        shutil.move(sweep_inputs(cfg, out_dir), teacher)
        shutil.rmtree(out_dir)
        replace_test_split_with_a_wider_one(tmp, cfg, data_dir)
        capsys.readouterr()
        assert run("sweep-temp", "--config", cfg, "--temps", 2, "--teacher", teacher) == 2
        assert capsys.readouterr().err == f"error: {teacher} takes 4 features but {data_dir / 'test.csv'} has 5\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "teacher_data, message",
        [("wide", "{teacher} takes 5 features but {data}/test.csv has 4"), (None, "checkpoint not found")],
    )
    def test_teacher_that_does_not_fit_is_refused_before_out_dir(self, tmp_path, capsys, teacher_data, message):
        # the teacher was once read after out_dir was made, which then held
        # a resolved_config.txt of a sweep that never ran
        teacher = tmp_path / "absent.ckpt"
        if teacher_data is not None:
            wide = write_config(tmp_path / "wide.cfg", d=5, data_dir=tmp_path / "wide", out_dir=tmp_path / "wide-out")
            assert run("make-data", "--config", wide) == 0
            assert run("train", "--config", wide, "--role", "teacher") == 0
            teacher = tmp_path / "wide-out" / "teacher.ckpt"
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", data_dir=tmp_path / "data", out_dir=out_dir)
        assert run("make-data", "--config", cfg) == 0
        capsys.readouterr()
        assert run("sweep-temp", "--config", cfg, "--temps", 2, "--teacher", teacher) == 2
        assert message.format(teacher=teacher, data=tmp_path / "data") in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("failing", [1, 2, 4])
    def test_failing_student_exits_2_with_its_error_and_writes_no_table(self, workspace, monkeypatch, capsys, failing):
        # the first, a middle and the last student: rows trained before the
        # failure are not written either
        _, cfg, _, out_dir = workspace
        teacher = sweep_inputs(cfg, out_dir)
        real = pipeline.train_student

        def train_student(train, test, teacher, cfg):
            if cfg.kd.temperature == failing:
                raise RuntimeError(f"student at T={failing} failed")
            return real(train, test, teacher, cfg)

        monkeypatch.setattr(pipeline, "train_student", train_student)
        capsys.readouterr()
        assert run("sweep-temp", "--config", cfg, "--temps", 1, 2, 4, "--teacher", teacher) == 2
        assert capsys.readouterr().err == f"error: student at T={failing} failed\n"
        assert not (out_dir / "sweep.csv").exists()

    def test_duplicate_temps_identical(self, workspace):
        _, cfg, data_dir, out_dir = workspace
        teacher = sweep_inputs(cfg, out_dir)
        assert run("sweep-temp", "--config", cfg, "--temps", 2, 2, "--teacher", teacher) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[1] == rows[1].split(",")[1]


# every file each command commits into its output directory, by the word
# its refusal names it with
OUTPUTS = {
    "make-data": {
        "resolved config": "resolved_config.txt",
        "class counts": "counts.csv",
        "train split": "train.csv.bin",
        "test split": "test.csv.bin",
    },
    **{
        role: {
            "resolved config": "resolved_config.txt",
            "checkpoint": f"{role}.ckpt",
            "metric log": f"{role}_metrics.csv",
            "report": f"{role}_report.json",
        }
        for role in ("teacher", "student")
    },
    "eval": {
        "resolved config": "resolved_config.txt",
        "report": "eval_report.json",
        "confusion matrix": "confusion_counts.csv",
        "row-normalized confusion matrix": "confusion_rownorm.csv",
    },
    "sweep-temp": {"resolved config": "resolved_config.txt", "sweep table": "sweep.csv"},
}
PLANNED = [(command, what) for command, outputs in OUTPUTS.items() for what in outputs]


def planned_run(tmp_path, command):
    """``(arguments, output directory)`` of ``command`` (a role stands for
    ``train`` in that role) writing into a directory that does not exist
    yet. Its inputs are made first: ``make-data`` writes ``data``, and the
    other commands read it, and a teacher in ``prep``, and write ``out``."""
    data_dir, teacher = tmp_path / "data", tmp_path / "prep" / "teacher.ckpt"
    prep = write_config(tmp_path / "prep.cfg", data_dir=data_dir, out_dir=teacher.parent)
    if command == "make-data":
        return ["make-data", "--config", prep], data_dir
    assert run("make-data", "--config", prep) == 0
    if command in ("student", "eval", "sweep-temp"):
        assert run("train", "--config", prep, "--role", "teacher") == 0
    cfg = write_config(tmp_path / "run.cfg", data_dir=data_dir, out_dir=tmp_path / "out")
    args = {
        "teacher": ["train", "--role", "teacher"],
        "student": ["train", "--role", "student", "--teacher", teacher],
        "eval": ["eval", "--ckpt", teacher, "--data", data_dir / "test.csv"],
        "sweep-temp": ["sweep-temp", "--temps", 1, 2, "--teacher", teacher],
    }[command]
    return [*args, "--config", cfg], tmp_path / "out"


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.fixture
def work(monkeypatch):
    """The work commands start, by kind: epochs trained (the records the
    epoch loop yields), splits saved and predictions made."""
    calls = {"epochs": count_epochs(monkeypatch)}
    for kind, module, name in [
        ("saved", cli, "save_dataset"),
        ("predictions", evaluate, "predict"),
    ]:
        def counting(*args, _kind=kind, _real=getattr(module, name), **kwargs):
            calls[_kind].append(1)
            return _real(*args, **kwargs)

        calls[kind] = []
        monkeypatch.setattr(module, name, counting)
    return calls


class TestOutputPlan:
    @pytest.mark.parametrize(
        "command, what", PLANNED, ids=[f"{command}-{what.replace(' ', '-')}" for command, what in PLANNED]
    )
    def test_output_path_that_is_a_directory_is_refused_before_any_work(
        self, tmp_path, capsys, work, command, what
    ):
        # a directory in place of any output but the checkpoint was once met
        # only at its write, which exited 2 with the bare "[Errno 21]": after
        # all the work, for every output but the resolved config
        args, out_dir = planned_run(tmp_path, command)
        adir = out_dir / OUTPUTS[command][what]
        adir.mkdir(parents=True)
        for calls in work.values():
            calls.clear()
        capsys.readouterr()
        assert run(*args) == 2
        assert capsys.readouterr().err == f"error: {adir}: cannot write the {what}: Is a directory\n"
        assert work == {kind: [] for kind in work}
        assert os.listdir(out_dir) == [adir.name]
        assert os.listdir(adir) == []

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_run_commits_exactly_the_files_it_probed(self, tmp_path, monkeypatch, work, command):
        # a file written without being probed would be found uncommittable
        # only after the work
        args, out_dir = planned_run(tmp_path, command)
        probed, check_output = {}, cli.check_output

        def recording(path, what):
            probed[what] = path
            check_output(path, what)

        monkeypatch.setattr(cli, "check_output", recording)
        for calls in work.values():
            calls.clear()
        assert run(*args) == 0
        assert probed == {what: str(out_dir / name) for what, name in OUTPUTS[command].items()}
        assert sorted(os.listdir(out_dir)) == sorted(OUTPUTS[command].values())
        # the counters see the work the refusals above must not start
        assert work[{"make-data": "saved", "eval": "predictions"}.get(command, "epochs")]


    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("command, key", [("teacher", "out_dir"), ("make-data", "data_dir")])
    def test_directory_that_cannot_be_made_is_refused_before_any_work(
        self, tmp_path, capsys, work, command, key, under
    ):
        # once the bare "[Errno 17] File exists" or "[Errno 20] Not a directory"
        args, _ = planned_run(tmp_path, command)
        afile = tmp_path / "afile"
        afile.write_text("")
        directory = afile / "sub" if under else afile
        cfg = write_config(
            tmp_path / "run.cfg", **{"data_dir": tmp_path / "data", "out_dir": tmp_path / "out", key: directory}
        )
        args[args.index("--config") + 1] = cfg
        files = _tree(tmp_path)
        for calls in work.values():
            calls.clear()
        capsys.readouterr()
        assert run(*args) == 2
        reason = "Not a directory" if under else "File exists"
        assert capsys.readouterr().err == f"error: {directory}: cannot write the {key}: {reason}\n"
        assert work == {kind: [] for kind in work}
        assert _tree(tmp_path) == files
        assert afile.read_text() == ""


class TestUnopenableInputs:
    # a directory in place of an input file once exited 2 with the bare
    # "[Errno 21] Is a directory"; a missing file keeps its own message

    @pytest.mark.parametrize(
        "command",
        [
            ("eval", "--data", "absent.csv", "--ckpt"),
            ("train", "--role", "student", "--teacher"),
            ("sweep-temp", "--temps", 2, "--teacher"),
        ],
        ids=["eval", "train", "sweep-temp"],
    )
    def test_checkpoint_that_cannot_be_opened_is_runtime_error_naming_the_file(self, workspace, capsys, command):
        tmp, cfg, _, out_dir = workspace
        adir, absent = tmp / "adir", tmp / "absent.ckpt"
        adir.mkdir()
        assert run(command[0], "--config", cfg, *command[1:], adir) == 2
        assert capsys.readouterr().err == f"error: {adir}: cannot read the checkpoint: Is a directory\n"
        assert run(command[0], "--config", cfg, *command[1:], absent) == 2
        assert capsys.readouterr().err == f"error: checkpoint not found: {absent}\n"
        assert not out_dir.exists()

    def test_eval_data_that_cannot_be_opened_is_runtime_error_naming_the_file(self, workspace, capsys):
        tmp, cfg, _, out_dir = workspace
        assert run("make-data", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--role", "teacher") == 0
        ckpt, report = out_dir / "teacher.ckpt", out_dir / "eval_report.json"
        # the split named ``--data`` is read from its ``.bin`` file
        adir, absent = tmp / "adir.csv", tmp / "absent.csv"
        (tmp / "adir.csv.bin").mkdir()
        capsys.readouterr()
        assert run("eval", "--ckpt", ckpt, "--data", adir, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err == f"error: {adir}.bin: cannot read the dataset file: Is a directory; rerun make-data\n"
        assert run("eval", "--ckpt", ckpt, "--data", absent, "--config", cfg) == 2
        assert capsys.readouterr().err == f"error: dataset file not found: {absent}.bin; rerun make-data\n"
        assert not report.exists()

    def test_train_split_that_cannot_be_opened_is_refused_before_out_dir(self, workspace, capsys):
        _, cfg, data_dir, out_dir = workspace
        file = data_dir / "train.csv.bin"
        file.mkdir(parents=True)
        assert run("train", "--config", cfg, "--role", "teacher") == 2
        err = capsys.readouterr().err
        assert err == f"error: {file}: cannot read the dataset file: Is a directory; rerun make-data\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("split", ["train.csv", "test.csv"])
    @pytest.mark.parametrize("command", ["teacher", "student", "eval", "sweep-temp"])
    def test_split_without_its_sidecar_refused_before_any_work(self, tmp_path, capsys, work, command, split):
        # a split is read from its .bin file alone: without one, every
        # command that reads the split names the file and make-data, as
        # CI's installed round trip checks for eval
        args, out_dir = planned_run(tmp_path, command)
        file = tmp_path / "data" / f"{split}.bin"
        file.unlink()
        for calls in work.values():
            calls.clear()
        capsys.readouterr()
        assert run(*args) == 2
        assert capsys.readouterr().err == f"error: dataset file not found: {file}; rerun make-data\n"
        assert work == {kind: [] for kind in work}
        assert not out_dir.exists()


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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("loss = foo", "bad value for 'loss': expected one of ['bkd', 'cb', 'ce', 'kd'], got 'foo'"),
            ("hidden_dims = 64,x", "bad value for 'hidden_dims': expected comma-separated integers, got '64,x'"),
            ("lr_steps = 1-0.5", "bad value for 'lr_steps': expected epoch:factor pairs, got '1-0.5'"),
            ("epochs 5", "expected 'key = value', got 'epochs 5'"),
        ],
    )
    def test_malformed_line_is_config_error_naming_the_line(self, tmp_path, capsys, line, message):
        # a value its key's parser refused once left the file and line out
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# the second line is refused\n{line}\n")
        assert run("make-data", "--config", cfg) == 1
        assert capsys.readouterr().err == f"config error: {cfg}:2: {message}\n"

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 5\nepochs = 6\n")
        assert run("make-data", "--config", cfg) == 1

    def test_missing_config_file(self, tmp_path):
        assert run("make-data", "--config", tmp_path / "absent.cfg") == 1

    @pytest.mark.parametrize(
        "command", [["make-data"], ["train", "--role", "teacher"], ["sweep-temp", "--temps", 2, "--teacher", "absent.ckpt"]]
    )
    def test_config_that_cannot_be_opened_is_config_error_naming_the_file(self, tmp_path, capsys, command):
        # a directory once exited 2 with the bare OSError; a missing file
        # keeps its own message
        adir = tmp_path / "adir"
        adir.mkdir()
        assert run(command[0], "--config", adir, *command[1:]) == 1
        assert capsys.readouterr().err == f"config error: {adir}: cannot read the config file: Is a directory\n"
        assert run(command[0], "--config", tmp_path / "absent.cfg", *command[1:]) == 1
        assert capsys.readouterr().err == f"config error: config file not found: {tmp_path / 'absent.cfg'}\n"
        assert sorted(os.listdir(tmp_path)) == ["adir"]

    def test_an_empty_config_file_is_the_library_default(self, tmp_path):
        # TrainConfig() once trained ce at base_lr 0.1, where an empty file
        # trains bkd at 0.02
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        cfg = parse_config(empty)
        assert cfg == default_config()
        assert train_config(cfg) == TrainConfig()
        assert imbalance_profile(cfg) == ImbalanceProfile()

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
            ("lr", -1),
            # against the default pair (100, 20): inverted, equal, non-positive
            ("many_thresh", 10), ("few_thresh", 100), ("few_thresh", 0),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("train", "--role", "teacher"),
            ("sweep-temp", "--temps", 2, "--teacher", "absent.ckpt"),
            ("eval", "--ckpt", "absent.ckpt", "--data", "absent.csv"),
            # make-data once wrote its data and echoed the refused value into data/resolved_config.txt
            ("make-data",),
        ],
    )
    def test_value_the_training_config_rejects_is_config_error(self, tmp_path, capsys, key, value, command):
        # refused before any data is read or written: the data directory does not exist
        out_dir, data_dir = tmp_path / "out", tmp_path / "data"
        cfg = write_config(tmp_path / "bad.cfg", data_dir=data_dir, out_dir=out_dir, **{key: value})
        assert run(command[0], "--config", cfg, *command[1:]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists() and not data_dir.exists()

    @pytest.mark.parametrize("key", ["data_dir", "out_dir"])
    @pytest.mark.parametrize("command", [("make-data",), ("train", "--role", "teacher")])
    def test_empty_path_is_config_error_naming_the_line(self, tmp_path, monkeypatch, capsys, key, command):
        # make-data once exited 2 with "error: : cannot write the data_dir",
        # and train read train.csv from the working directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "empty-path.cfg"
        cfg.write_text(f"epochs = 1\n{key} =\n")
        assert run(command[0], "--config", cfg, *command[1:]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}:2: bad value for '{key}': expected a path, got ''\n"
        assert os.listdir(tmp_path) == ["empty-path.cfg"]

    @pytest.mark.parametrize("steps", ["1:0", "1:-0.5", "2:0.5,3:nan", "1:inf", "-1:0.5"])
    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_bad_step_schedule_is_config_error_before_any_data_is_read(self, tmp_path, capsys, steps, role):
        # a factor of 0 once trained epoch 0 and then exited 2, leaving out/
        # behind; the data directory and the teacher checkpoint do not exist
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path / "bad.cfg", schedule="step", lr_steps=steps, data_dir=tmp_path / "data", out_dir=out_dir
        )
        teacher = ["--teacher", tmp_path / "absent.ckpt"] if role == "student" else []
        assert run("train", "--config", cfg, "--role", role, *teacher) == 1
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
            ("sweep-temp", "--temps", 2, "--teacher", "absent.ckpt"),
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

    @pytest.mark.parametrize(
        "command",
        [
            ("make-data",),
            ("train", "--role", "teacher"),
            ("train", "--role", "student", "--teacher", "absent.ckpt"),
            ("eval", "--ckpt", "absent.ckpt", "--data", "absent.csv"),
            ("sweep-temp", "--temps", 2, "--teacher", "absent.ckpt"),
        ],
        ids=["make-data", "teacher", "student", "eval", "sweep-temp"],
    )
    def test_removed_defer_epoch_key_refused_before_any_data_is_read(self, workspace, capsys, command):
        # a run trains one objective for every epoch: the key that once
        # switched a bkd student from plain distillation is unknown
        tmp, _, data_dir, out_dir = workspace
        cfg = write_config(tmp / "defer.cfg", data_dir=data_dir, out_dir=out_dir, defer_epoch=50)
        with open(cfg) as fh:
            lineno = fh.read().splitlines().index("defer_epoch = 50") + 1
        assert run(command[0], "--config", cfg, *command[1:]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}:{lineno}: unknown key 'defer_epoch'\n"
        assert not data_dir.exists() and not out_dir.exists()

    def test_removed_kind_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = gaussian\n")
        assert run("make-data", "--config", cfg) == 1
        assert "unknown key" in capsys.readouterr().err


def _no_fork():
    raise AssertionError("a command forked")


# each command, and the commands that make its inputs
NO_FORK_COMMANDS = {
    "make-data": (("make-data",), ()),
    "train-teacher": (("train", "--role", "teacher"), ("make-data",)),
    "train-student": (("train", "--role", "student", "--teacher", "{teacher}"), ("make-data", "train-teacher")),
    "eval": (("eval", "--ckpt", "{teacher}", "--data", "{test}"), ("make-data", "train-teacher")),
    "sweep-temp": (("sweep-temp", "--temps", 1, 2, 4, "--teacher", "{teacher}"), ("make-data", "train-teacher")),
    "gradcheck": (("gradcheck", "--trials", 5), ()),
}


@pytest.mark.parametrize("command", list(NO_FORK_COMMANDS))
def test_no_command_forks(tmp_path, monkeypatch, command):
    # three CPUs in the affinity mask: sweep-temp once forked a child per
    # group of temperatures there, and make-data one per group of chunks
    data_dir = tmp_path / "data"
    cfg = write_config(tmp_path / "exp.cfg", data_dir=data_dir, out_dir=tmp_path / "out")
    paths = {"teacher": tmp_path / "out" / "teacher.ckpt", "test": data_dir / "test.csv"}

    def args_of(name):
        args = [str(a).format(**paths) for a in NO_FORK_COMMANDS[name][0]]
        return args if name == "gradcheck" else [*args, "--config", cfg]

    for name in NO_FORK_COMMANDS[command][1]:
        assert run(*args_of(name)) == 0, name
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert run(*args_of(command)) == 0
    if command == "make-data":
        assert (data_dir / "train.csv.bin").read_bytes() == _reference_file(load_dataset(str(data_dir / "train.csv")))
