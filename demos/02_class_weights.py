"""Effective-number class weights.

The weight of a class with n training samples is (1 - beta) / (1 - beta^n).
Rare classes get weight near 1; abundant classes saturate at 1 - beta. The
hyperparameter beta sets how quickly extra samples stop counting.
"""

import numpy as np

from longtail_kd import effective_number_weights, normalize_weights

counts = np.array([5000, 1000, 200, 50, 10, 1])

print("counts:", counts.tolist())
for beta in (0.9, 0.99, 0.999, 0.9999):
    w = effective_number_weights(counts, beta)
    print(f"beta={beta:<7}: " + "  ".join(f"{v:.5f}" for v in w))

# As beta -> 0 every weight tends to 1 (no re-weighting at all); as beta -> 1
# the weights approach 1/n, the inverse-frequency rule.
print("\nbeta=1e-9 (all ~1):", np.round(effective_number_weights(counts, 1e-9), 6).tolist())
w_near_one = effective_number_weights(counts, 0.999999)
print("beta=0.999999 vs 1/n ratio:", np.round(w_near_one * counts, 3).tolist())

# The class-balanced loss trains on the weights rescaled to sum to the number
# of classes (Cui et al.): the ratios stay and the average weight is 1, so the
# re-weighted loss keeps the plain one's overall scale and learning rate.
w = effective_number_weights(counts, 0.9999)
scaled = normalize_weights(w)
print("\nraw weights:     ", np.round(w, 5).tolist())
print("mean-one weights:", np.round(scaled, 5).tolist(), " sum =", round(scaled.sum(), 6))
