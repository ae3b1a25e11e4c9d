"""Var(S_n) computed by two independent exact routes.

The covariance route expands Var(S_n) into pair covariances, which vanish
exactly once the multiplier product between two indices exceeds degree(f).
The martingale route sums per-step projection defects of the u_k.  Both sum
exactly and round each Var(S_k) once, so they agree bit for bit on every
row; for the three showcase scenarios the values are:

* cos(2 pi x) over constant 2:  Var(S_n) = n/2 (every covariance dies),
* f1 = cos(4 pi x) - cos(2 pi x) over constant 2:  Var(S_n) = 1 (telescoping
  coboundary),
* f1 over the blocks schedule: variance grows only inside the runs of 3s.
"""

from seqclt import (
    cosine,
    linear_combine,
    variance_covariance_curve,
    variance_martingale_curve,
)
from seqclt.sequences import Blocks, Constant

cos1 = cosine(1)
f1 = linear_combine([(1.0, cosine(2)), (-1.0, cosine(1))])

scenarios = [
    ("cos(2 pi x) / constant 2", cos1, Constant(2)),
    ("f1 / constant 2 (coboundary)", f1, Constant(2)),
    ("f1 / blocks D=4", f1, Blocks(4)),
]

n = 1024
print(f"{'scenario':34s} {'n':>6s} {'Var cov':>12s} {'Var mart':>12s} {'equal':>6s}")
for name, f, spec in scenarios:
    cov = variance_covariance_curve(f, spec, n)
    mart = variance_martingale_curve(f, spec, n)
    for h in (16, 128, 1024):
        equal = "yes" if cov[h - 1] == mart[h - 1] else "NO"
        print(f"{name:34s} {h:6d} {cov[h - 1]:12.6f} {mart[h - 1]:12.6f} {equal:>6s}")
    print(f"{'':34s} every row of {n}: {'equal' if cov == mart else 'NOT equal'}")
    print()

print("blocks schedule: variance jumps only where runs of 3s sit")
curve = variance_covariance_curve(f1, Blocks(4), 300)
for k in (3, 4, 5, 15, 16, 17, 18, 63, 64, 66, 67, 300):
    print(f"  Var(S_{k}) = {curve[k - 1]:.6f}")
