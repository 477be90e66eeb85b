import json
from dataclasses import replace

import numpy as np
import pytest

from longtail_kd.data import synth_gaussian_mixture, subset_tags
from longtail_kd.evaluate import (
    accuracy_report,
    confusion_matrix,
    confusion_to_csv,
    predict,
    report_from_confusion,
    report_to_json,
    row_normalized,
    sweep_to_csv,
)
from longtail_kd.losses import BKDConfig, KDConfig
from longtail_kd.mathutils import Rng
from longtail_kd.mlp import LrSchedule, MlpParams, init_mlp
from longtail_kd.pipeline import TrainConfig, temperature_sweep, train_student, train_teacher


class TestPredict:
    def test_argmax_and_tie_rule(self):
        # single linear layer turns identity-ish features into chosen logits
        params = MlpParams([np.eye(3)], [np.zeros(3)])
        from longtail_kd.data import LabeledDataset

        data = LabeledDataset(
            np.array([[0.1, 0.9, 0.3], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]),
            np.array([1, 0, 0]),
            num_classes=3,
        )
        np.testing.assert_array_equal(predict(params, data), [1, 0, 0])

    def test_zero_model_predicts_class_zero(self):
        params = init_mlp([4, 3], seed=0)
        for w in params.weights:
            w[:] = 0.0
        train, _ = synth_gaussian_mixture([5, 5, 5], 4, 2.0, seed=1, per_class_test=1)
        np.testing.assert_array_equal(predict(params, train), np.zeros(len(train)))

    def test_dimension_mismatch(self):
        params = init_mlp([4, 3], seed=0)
        train, _ = synth_gaussian_mixture([5], 6, 1.0, seed=1, per_class_test=1)
        with pytest.raises(ValueError):
            predict(params, train)

    def test_invariant_under_logit_rescaling(self):
        params = init_mlp([5, 8, 4], seed=2)
        train, _ = synth_gaussian_mixture([20, 20, 20, 20], 5, 2.0, seed=3, per_class_test=1)
        base = predict(params, train)
        for w in [params.weights[-1]]:
            w *= 7.5
        params.biases[-1] *= 7.5
        np.testing.assert_array_equal(predict(params, train), base)


class TestAccuracyReport:
    def test_all_correct(self):
        tags = subset_tags([500, 50, 5], 100, 20)
        labels = np.array([0, 0, 1, 2])
        r = accuracy_report(labels, labels, tags)
        assert r.overall == 1.0 and r.many == 1.0 and r.medium == 1.0 and r.few == 1.0
        assert r.per_class == (1.0, 1.0, 1.0)
        assert r.n == 4

    def test_constant_predictor_on_balanced_two_class(self):
        tags = subset_tags([500, 500], 100, 20)
        preds = np.zeros(100, dtype=np.int64)
        labels = np.array([0] * 50 + [1] * 50)
        r = accuracy_report(preds, labels, tags)
        assert r.overall == 0.5

    def test_hand_counted_subsets(self):
        tags = subset_tags([500, 50, 5], 100, 20)  # many, medium, few
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        preds = np.array([0, 0, 1, 1, 0, 2, 2, 0, 1])
        r = accuracy_report(preds, labels, tags)
        assert r.overall == 5 / 9
        assert r.many == 2 / 3
        assert r.medium == 1 / 2
        assert r.few == 2 / 4
        assert r.per_class == (2 / 3, 1 / 2, 2 / 4)

    def test_empty_subset_reported_absent_not_zero(self):
        tags = subset_tags([500, 300], 100, 20)  # all classes many-shot
        labels = np.array([0, 1, 1])
        r = accuracy_report(np.array([0, 1, 0]), labels, tags)
        assert r.medium is None and r.few is None
        payload = json.loads(report_to_json(r))
        assert "medium" not in payload and "few" not in payload
        assert payload["many"] == r.many == r.overall

    def test_class_with_no_test_samples_absent(self):
        tags = subset_tags([500, 5], 100, 20)
        labels = np.array([0, 0])
        r = accuracy_report(np.array([0, 1]), labels, tags)
        assert r.per_class == (0.5, None)
        assert r.few is None  # the few-shot class has no test rows

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_report(np.array([0, 1]), np.array([0]), subset_tags([5, 5], 100, 20))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_prediction_outside_the_classes_rejected(self, bad):
        # such a prediction once counted silently as a miss
        with pytest.raises(ValueError, match=r"preds contain entries outside \[0, 2\)"):
            accuracy_report(np.array([0, bad]), np.array([0, 1]), subset_tags([5, 5], 100, 20))


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        m = confusion_matrix(labels, labels, 3)
        np.testing.assert_array_equal(m, np.diag([2, 1, 3]))

    def test_shifted_predictions_zero_diagonal(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        preds = (labels + 1) % 3
        m = confusion_matrix(preds, labels, 3)
        assert np.trace(m) == 0
        assert m.sum() == 6

    def test_matches_brute_force_tally(self):
        rng = Rng(60)
        C = 5
        labels = (rng.uniform(200) * C).astype(np.int64)
        preds = (rng.uniform(200) * C).astype(np.int64)
        m = confusion_matrix(preds, labels, C)
        for i in range(C):
            for j in range(C):
                assert m[i, j] == int(((labels == i) & (preds == j)).sum())

    def test_trace_over_n_equals_overall_accuracy(self):
        rng = Rng(61)
        C = 4
        labels = (rng.uniform(500) * C).astype(np.int64)
        preds = (rng.uniform(500) * C).astype(np.int64)
        counts = np.bincount(labels, minlength=C)
        m = confusion_matrix(preds, labels, C)
        r = accuracy_report(preds, labels, subset_tags(np.maximum(counts, 1), 100, 20))
        assert np.trace(m) / m.sum() == r.overall
        np.testing.assert_array_equal(m.sum(axis=1), counts)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 3]), np.array([0, 1]), 3)

    def test_report_of_an_empty_set_rejected(self):
        confusion = confusion_matrix(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2)
        with pytest.raises(ValueError) as info:
            report_from_confusion(confusion, subset_tags([500, 5], 100, 20))
        assert str(info.value) == "cannot evaluate an empty prediction set"

    def test_row_normalized_handles_empty_rows(self):
        m = np.array([[2, 0], [0, 0]])
        norm = row_normalized(m)
        np.testing.assert_array_equal(norm, [[1.0, 0.0], [0.0, 0.0]])

    def test_csv_shapes(self):
        m = confusion_matrix(np.array([0, 1]), np.array([0, 1]), 2)
        text = confusion_to_csv(m)
        lines = text.strip().splitlines()
        assert lines[0] == "true\\pred,0,1"
        assert lines[1] == "0,1,0"


class TestTemperatureSweep:
    def _setup(self):
        train, test = synth_gaussian_mixture([80, 40, 10], 6, 2.5, seed=70, per_class_test=30)
        cfg = TrainConfig(
            loss="bkd", epochs=5, batch_size=32, hidden_dims=(16,),
            schedule=LrSchedule("cosine", 0.05), seed=4,
            kd=KDConfig(alpha=0.5, temperature=2.0), bkd=BKDConfig(beta=0.999, temperature=2.0),
        )
        teacher, _ = train_teacher(train, test, cfg)
        return train, test, teacher, cfg

    def test_single_temp_matches_standalone_run(self):
        train, test, teacher, cfg = self._setup()
        rows = temperature_sweep(train, test, teacher, cfg, [2.0])
        assert len(rows) == 1 and rows[0][0] == 2.0
        params, log = train_student(train, test, teacher, cfg)
        assert rows[0][1] == log[-1].acc_all

    def test_multiple_temps_all_in_unit_interval(self):
        train, test, teacher, cfg = self._setup()
        rows = temperature_sweep(train, test, teacher, cfg, [1.0, 2.0, 3.0, 4.0])
        assert [T for T, _ in rows] == [1.0, 2.0, 3.0, 4.0]
        assert all(0.0 <= acc <= 1.0 for _, acc in rows)

    def test_duplicate_temps_identical(self):
        train, test, teacher, cfg = self._setup()
        rows = temperature_sweep(train, test, teacher, cfg, [2.0, 2.0])
        assert rows[0][1] == rows[1][1]

    def test_empty_temps_rejected(self):
        train, test, teacher, cfg = self._setup()
        with pytest.raises(ValueError):
            temperature_sweep(train, test, teacher, cfg, [])

    def test_zero_epochs_rejected(self):
        train, test, teacher, cfg = self._setup()
        with pytest.raises(ValueError, match="epoch"):
            temperature_sweep(train, test, teacher, replace(cfg, epochs=0), [2.0])

    def test_one_epoch_is_enough(self):
        # the last epoch a sweep reports may be its first
        train, test, teacher, cfg = self._setup()
        rows = temperature_sweep(train, test, teacher, replace(cfg, epochs=1), [2.0])
        _, log = train_student(train, test, teacher, replace(cfg, epochs=1))
        assert rows == [(2.0, log[0].acc_all)]

    def test_csv_rendering(self):
        assert sweep_to_csv([(1.0, 0.5)]) == "temperature,accuracy\n1.0,0.5\n"
