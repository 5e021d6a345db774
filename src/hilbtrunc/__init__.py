"""Truncation and convergence analysis for inverse linear problems in Hilbert space.

Build N x N compressions of model operators against chosen trial/test
orthonormal systems, solve them directly or by Krylov iteration, lift
the solutions back, and measure how the infinite-dimensional error and
residual behave as N grows, including under spectral noise.
"""

from .core import (
    CapabilityError,
    ConfigError,
    QuadratureRule,
    SpaceMismatchError,
    gauss_legendre,
    qr_least_squares,
    singular_values,
)
from .elements import Func, Seq, inner, lincomb
from .operators import (
    BoundedOperator,
    MultiplicationSeq,
    MultiplicationX,
    RightShift,
    SequenceLaw,
    SvdTriple,
    Volterra,
    WeightedRightShift,
    WeightedRightShiftZ,
    constant_law,
    geometric_law,
    parse_law,
    parse_operator,
    power_law,
    shifted_power_law,
    volterra_power_apply,
)
from .bases import (
    KrylovBasis,
    OrthonormalBasis,
    adversarial_test_basis,
    arnoldi,
    canonical_basis,
    fourier_basis,
    krylov_basis,
    legendre_basis,
    svd_bases,
)
from .truncation import (
    ApproxSolution,
    TruncatedProblem,
    compress,
    lift,
    solve_cg,
    solve_direct,
    solve_gmres,
)
from .diagnostics import (
    Classification,
    ConvergenceRecord,
    NoiseModel,
    NoiseSeries,
    classify,
    evaluate,
    law_tail_sq,
    noise_series,
    noisy_pipeline_check,
)

__version__ = "0.1.0"
