"""Long-tailed count profiles and many/medium/few subset tagging.

Build the two supported imbalance profiles, look at their head/tail ratios,
and tag classes by training volume.
"""

from longtail_kd import ImbalanceProfile, make_longtail_counts, subset_tags

# An exponential profile drops the per-class count geometrically from the
# head class to the tail class so that max/min equals the imbalance ratio.
for rho in (10, 50, 100):
    counts = make_longtail_counts(ImbalanceProfile("exponential", rho, n_max=5000, num_classes=10))
    print(f"exponential rho={rho:>3}: {counts.tolist()}  ratio={counts[0] / counts[-1]:g}")

# A step profile keeps the head half at n_max and drops the rest at once.
counts = make_longtail_counts(ImbalanceProfile("step", 100, n_max=5000, num_classes=10))
print(f"step        rho=100: {counts.tolist()}  ratio={counts[0] / counts[-1]:g}")

# Classes are grouped by training volume: over 100 samples is many-shot,
# 20..100 is medium-shot, under 20 is few-shot.
counts = make_longtail_counts(ImbalanceProfile("exponential", 100, n_max=500, num_classes=10))
tags = subset_tags(counts, many_thresh=100, few_thresh=20)
print("\ncounts:", counts.tolist())
print("tags:  ", list(tags))
for name in ("many", "medium", "few"):
    members = [c for c, tag in enumerate(tags) if tag == name]
    print(f"  {name:>6}-shot classes: {members}")
