"""Class-prior-weighted knowledge distillation for long-tailed classification.

A from-scratch numpy toolkit: temperature softmax and friends, effective-
number class weights, four losses (cross-entropy, class-balanced, plain and
balanced distillation) with analytic logit gradients, long-tailed dataset
synthesis, a dense rectifier network with explicit backprop, a two-phase
teacher/student training pipeline, and subset-aware evaluation.
"""

from .data import (
    ImbalanceProfile,
    LabeledDataset,
    load_dataset,
    make_longtail_counts,
    save_dataset,
    subset_tags,
    synth_gaussian_mixture,
)
from .evaluate import EvalReport, accuracy_report, confusion_matrix, predict
from .gradcheck import finite_difference_gradient, run_gradient_checks
from .losses import (
    BKDConfig,
    KDConfig,
    LossResult,
    bkd_loss,
    cb_loss,
    ce_loss,
    distill_grad_formula,
    kd_loss,
)
from .mathutils import Rng, softmax_with_temperature
from .mlp import LrSchedule, MlpParams, backward, forward, init_mlp, lr_at, sgd_momentum_step
from .pipeline import (
    MetricRow,
    RunState,
    TrainConfig,
    open_run,
    read_checkpoint,
    temperature_sweep,
    train_student,
    train_teacher,
    write_checkpoint,
)
from .weights import effective_number_weights, normalize_weights

__version__ = "0.1.0"
