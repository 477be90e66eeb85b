"""The four losses on one worked example, plus a finite-difference audit.

A tail-class sample seen by a head-biased teacher: watch how each loss moves
the student's logits.
"""

import numpy as np

from longtail_kd import (
    bkd_loss,
    cb_loss,
    ce_loss,
    effective_number_weights,
    kd_loss,
    softmax_with_temperature,
)
from longtail_kd.gradcheck import finite_difference_gradient, run_gradient_checks

counts = np.array([5000, 500, 50, 5])          # 4 classes, head to tail
w = effective_number_weights(counts, 0.9999)
y = 3                                          # the sample's true class: the rarest one
z = np.array([1.2, 0.4, -0.3, -0.8])           # student logits, biased to the head
teacher_logits = np.array([2.0, 0.8, -0.2, 0.1])  # teacher is head-biased too
T = 2.0
phat = softmax_with_temperature(teacher_logits, T)

print("class counts:", counts.tolist())
print("weights:     ", np.round(w, 5).tolist())
print("teacher soft targets at T=2:", np.round(phat, 4).tolist())
print()

results = {
    "ce ": ce_loss(z, y),
    "cb ": cb_loss(z, y, w),
    "kd ": kd_loss(z, phat, y, alpha=0.5, temperature=T),
    "bkd": bkd_loss(z, phat, y, w, temperature=T),
}
for name, r in results.items():
    print(f"{name}: value={r.value:8.4f}  grad={np.round(r.grad_logits, 4).tolist()}")

# The balanced loss pushes hardest toward the tail class: its distillation
# target re-weights the teacher's probabilities by the class weights, so the
# (negative) gradient on the true tail logit is the largest of the four.
print("\ngradient on the true (tail) logit per loss:")
for name, r in results.items():
    print(f"  {name}: {r.grad_logits[y]:+.4f}")

# Every analytic gradient is audited against central finite differences.
fd = finite_difference_gradient(lambda v: bkd_loss(v, phat, y, w, temperature=T).value, z)
print("\nbkd analytic vs finite differences, max gap:",
      f"{np.abs(results['bkd'].grad_logits - fd).max():.2e}")

worst = run_gradient_checks(trials=50, seed=0)
print("worst finite-difference gap over 50 random instances per loss:")
for name, err in sorted(worst.items()):
    print(f"  {name:<12} {err:.2e}")
