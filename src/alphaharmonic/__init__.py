"""Weighted-Laplacian Poisson kernels on the unit disk.

Evaluation of the weighted Poisson kernel and its Dirichlet solver,
Gauss hypergeometric machinery, closed-form Schwarz-type and
Schwarz-Pick-type bounds, and an empirical verification harness.
"""

from .errors import ConvergenceError, DomainError, IntegrandError
from .specfun import (Hyp2F1Result, beta, binom_general, c_alpha,
                      euler_transform_eval, gamma, hyp2f1, hyp2f1_at_one,
                      hyp2f1_detailed, pochhammer, quadratic_transform_eval)
from .quadrature import (QuadratureConfig, QuadratureResult,
                         cos_power_integral, integrate_periodic,
                         modulus_power_integral, ratio_integral_series)
from .kernel import (BoundaryData, DerivativePair,
                     alpha_laplacian_residual, derivative_pair,
                     derivative_quadrature, dirichlet_quadrature,
                     kernel_derivatives, poisson_kernel, real_kernel,
                     solve_dirichlet)
from .bounds import (BOUND_IDS, BoundReport, colonna_bound, evaluate_bound,
                     l1_mean_kernel, lc_schwarz_pick_bound, m1_bound,
                     m2_bound, m_bound, m_prime_bound, schwarz_bound,
                     schwarz_pick_bound, schwarz_pick_limit_bound)
from .verify import (TrialReport, TrialSpec, check_identities,
                     check_proof_machinery, check_schwarz,
                     check_schwarz_pick, figure1_data, random_boundary,
                     run_suite, thm_a_constant)

__version__ = "0.1.0"
