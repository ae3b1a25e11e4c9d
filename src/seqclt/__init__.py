"""Exact Fourier-side laboratory for time-dependent expanding circle maps.

The package computes, without discretisation error, the operator quantities
that govern central limit behaviour of Birkhoff sums over sequences of maps
x -> a_k * x mod 1: backward-averaged observables, transversality angles,
Var(S_n) by two independent routes, coboundary solvability, and exact-orbit
Monte Carlo checks of Gaussian convergence.
"""

from .analysis import (
    AngleRecord,
    DecayReport,
    ThresholdCert,
    VarianceReport,
    accumulated_transversality,
    angle_profile,
    block_shadowing_check,
    decay_certificate,
    example1_threshold,
    neumann_sum,
    separation_bound_check,
    u_at,
    u_sequence,
    variance_covariance,
    variance_covariance_curve,
    variance_martingale,
    variance_martingale_curve,
    variance_report,
    verify_decay,
)
from .coboundary import CoboundaryResult, solve, verify
from .sequences import (
    Blocks,
    Constant,
    Explicit,
    Periodic,
    SequenceSpec,
    Triples,
    generate,
)
from .trigpoly import (
    C1Norm,
    TrigPoly,
    c1_norm,
    cosine,
    evaluate,
    koopman,
    l2_inner,
    linear_combine,
    make_trigpoly,
    project_measurable,
    transfer,
)

__version__ = "0.1.0"

# montecarlo's names load on first use: `import seqclt` leaves numpy out
_MONTECARLO = ("DyadicPoint", "MCReport", "birkhoff_samples", "ks_statistic",
               "orbit_birkhoff", "required_bits", "sample_birkhoff")
__all__ = sorted([  # every class and function above, and montecarlo's
    name for name, obj in globals().items() if getattr(obj, "__module__", "").startswith("seqclt.")
] + list(_MONTECARLO))


def __getattr__(name: str):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
