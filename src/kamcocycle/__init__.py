"""Numerical KAM reduction of quasi-periodic sl(2,R) cocycles.

The engine conjugates a cocycle A + F(theta), with A constant and F a small
analytic perturbation on the torus, toward a constant system.  Frequencies
and rotation numbers are controlled by approximation functions of
Brjuno-Russmann type; every step emits machine-checkable residuals.
"""

from .errors import KamFailure
from .torus_fourier import TorusMap
from .sl2_algebra import EigenData, eigen, lm_inverse, lm_dense_solve, operator_bound_check
from .arithmetics import (
    ApproxFn,
    PowerFn,
    ExpPowFn,
    ExpLogFn,
    TabulatedFn,
    ProductFn,
    DivergentIntegral,
    ScanOrderTooLarge,
    check_nr_alpha,
    check_nr_omega,
    fit_G,
    fit_kappa,
    ratio_bounded,
    tail_integral,
)
from .kam_step import (
    MultipleResonances,
    PreconditionFailure,
    ResonanceReport,
    StepContext,
    StepOutput,
    conjugation_residual,
    eliminate_resonance,
    find_resonance,
    solve_homological,
    step_nonresonant,
    step_resonant,
)
from .kam_driver import (
    Certificate,
    KamSchedule,
    RunTrace,
    ScheduleViolation,
    StepRecord,
    brjuno_sum_threshold,
    check_condepsilon,
    make_schedule,
    resonance_budget_check,
    rn_lower_bound,
    run,
    sequence_N,
    smallness_explicit,
)
from .rotation_number import (
    RotationEstimate,
    StepTooLarge,
    rho_of_constant,
    rotation_number,
    verify_additivity,
)

__version__ = "0.1.0"
