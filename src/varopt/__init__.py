"""varopt: stochastic optimizers derived from a variational principle.

Mirror descent and SGD with deterministic learning-rate paths, Kalman
gradient descent, generalized momentum (at dtilde = 1, Polyak's heavy
ball), the gradient-stream models and Bayesian filters behind them, and
the energy/rate diagnostics that certify convergence behavior empirically.
"""

from .bregman import (
    DomainError,
    MirrorMap,
    NumericalError,
    divergence,
    dual_divergence_check,
    entropy_map,
    grad_dual,
    quadratic_map,
)
from .diagnostics import (
    EnsembleReport,
    Trajectory,
    action_estimate,
    energy,
    energy_path,
    hamiltonian,
    lagrangian,
    rate_bound_check,
    supermartingale_check,
)
from .gradient_models import (
    FilterDivergenceError,
    KalmanState,
    MartingaleGradientModel,
    StateSpaceGradientModel,
    kalman_bucy_step,
    kalman_discrete_step,
    kalman_steady_gain,
)
from .optimizers import (
    OptimizerSpec,
    fosp_flow_step,
    generalized_momentum_step,
    mirror_descent_step,
    momentum_from_nu,
    nu_from_momentum,
    run_ensemble,
)
from .schedules import (
    Mesh,
    Schedule,
    build_mesh,
    check_scaling,
    constant_schedule,
    linear_schedule,
    matrix_exp,
    phi_scalar_path,
    phi_vector_path,
    polynomial_schedule,
)

__version__ = "0.1.0"
