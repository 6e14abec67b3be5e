"""The public surface: exported names and the parameters of every public
function and class.

A change that adds, removes or renames a parameter or a CLI flag (a new
knob included) has to update these tables, and so has to say so.
"""

import argparse
import inspect

import alphaharmonic
from alphaharmonic import bounds, kernel, quadrature, specfun, verify
from alphaharmonic.cli import build_parser

MODULES = (specfun, quadrature, kernel, bounds, verify)

EXPORTS = frozenset({
    "BOUND_IDS", "BoundReport", "BoundaryData", "ConvergenceError",
    "DerivativePair", "DomainError", "Hyp2F1Result", "IntegrandError",
    "QuadratureConfig", "QuadratureResult",
    "TrialReport", "TrialSpec", "alpha_laplacian_residual", "beta",
    "binom_general", "c_alpha", "check_identities", "check_proof_machinery",
    "check_schwarz", "check_schwarz_pick", "colonna_bound",
    "cos_power_integral", "derivative_pair", "derivative_quadrature",
    "dirichlet_quadrature", "euler_transform_eval", "evaluate_bound",
    "figure1_data", "gamma", "hyp2f1", "hyp2f1_at_one", "hyp2f1_detailed",
    "integrate_periodic", "kernel_derivatives", "l1_mean_kernel",
    "lc_schwarz_pick_bound", "m1_bound", "m2_bound", "m_bound",
    "m_prime_bound", "modulus_power_integral", "pochhammer", "poisson_kernel",
    "quadratic_transform_eval", "random_boundary", "ratio_integral_series",
    "real_kernel", "run_suite", "schwarz_bound", "schwarz_pick_bound",
    "schwarz_pick_limit_bound", "solve_dirichlet", "thm_a_constant",
})

# Parameters as written in a def: "*name" is keyword-only, "name=repr" has
# a default.  DomainError is absent: it inherits ValueError's signature,
# which Python cannot read.
SIGNATURES = {
    "BoundReport": ("bound_id", "r", "alpha", "aux", "value",
                    "note='scales linearly with the boundary sup-norm'"),
    "BoundaryData": ("coefficients",),
    "ConvergenceError": ("message", "partial=None", "error_estimate=None",
                         "iterations=None"),
    "DerivativePair": ("d_z", "d_zbar"),
    "Hyp2F1Result": ("value", "terms_used", "transform"),
    "IntegrandError": ("message", "theta=None"),
    "QuadratureConfig": ("n_initial=256", "n_max=1048576", "rel_tol=1e-11",
                         "abs_tol=1e-14"),
    "QuadratureResult": ("value", "error_estimate", "nodes_used", "converged"),
    "TrialReport": ("theorem_id", "n_checked", "n_violations", "n_inconclusive",
                    "worst_margin", "details=<factory>", "informational=False"),
    "TrialSpec": ("seed=0", "n_trials=100", "max_degree=8",
                  "alpha_set=(-0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0)",
                  "radius_set=(0.1, 0.3, 0.5, 0.7, 0.85)", "slack=1e-09"),
    "ViolationDetail": ("trial", "margin", "context"),
    "alpha_laplacian_residual": ("alpha", "fstar", "z", "h"),
    "beta": ("x", "y"),
    "binom_general": ("alpha", "n"),
    "c_alpha": ("alpha",),
    "check_identities": ("spec",),
    "check_proof_machinery": ("spec",),
    "check_schwarz": ("spec",),
    "check_schwarz_pick": ("spec",),
    "colonna_bound": ("r",),
    "cos_power_integral": ("n",),
    "default_figure_alphas": (),
    "derivative_pair": ("alpha", "fstar", "z"),
    "derivative_quadrature": ("alpha", "fstar", "z", "config=None"),
    "dirichlet_quadrature": ("alpha", "fstar", "z", "config=None"),
    "disk_point_value": ("z",),
    "euler_transform_eval": ("params", "x"),
    "evaluate_bound": ("bound_id", "r", "alpha", "c=None"),
    "figure1_data": ("r=0.99", "alphas=None"),
    "gamma": ("x",),
    "hyp2f1": ("params", "x", "*one_minus_x=None"),
    "hyp2f1_at_one": ("params",),
    "hyp2f1_detailed": ("params", "x", "*one_minus_x=None"),
    "inconclusive_rate": ("reports",),
    "integrate_periodic": ("f", "config=None"),
    "kernel_derivatives": ("alpha", "z", "theta"),
    "l1_mean_kernel": ("alpha", "r"),
    "lc_schwarz_pick_bound": ("r", "alpha"),
    "m1_bound": ("r", "alpha", "c"),
    "m2_bound": ("r", "alpha"),
    "m_bound": ("r", "alpha"),
    "m_prime_bound": ("r", "alpha"),
    "modulus_power_integral": ("z", "beta"),
    "pochhammer": ("a", "n"),
    "poisson_kernel": ("alpha", "z"),
    "quadratic_transform_eval": ("a", "c", "x"),
    "random_boundary": ("seed", "degree", "target_sup_norm=1.0"),
    "ratio_integral_series": ("a", "b", "alpha", "beta"),
    "real_kernel": ("alpha", "z"),
    "run_suite": ("name", "spec"),
    "schwarz_bound": ("r", "alpha"),
    "schwarz_pick_bound": ("r", "alpha"),
    "schwarz_pick_limit_bound": ("r", "alpha"),
    "solve_dirichlet": ("alpha", "fstar", "z"),
    "thm_a_constant": ("fstar",),
    "total_violations": ("reports",),
}


_IO_FLAGS = ("--format", "--out")

# Option strings of each CLI subcommand, --help aside.
CLI_FLAGS = {
    "eval2f1": ("--a", "--b", "--c", "--x") + _IO_FLAGS,
    "solve": ("--alpha", "--boundary", "--z-re", "--z-im") + _IO_FLAGS,
    "bounds": ("--id", "--r", "--alpha", "--c") + _IO_FLAGS,
    "verify": ("--suite", "--seed", "--trials") + _IO_FLAGS,
    "figure1": ("--r", "--alpha-min", "--alpha-max", "--step") + _IO_FLAGS,
}


def _parameters(obj) -> tuple:
    out = []
    for p in inspect.signature(obj).parameters.values():
        text = "*" + p.name if p.kind is p.KEYWORD_ONLY else p.name
        if p.default is not p.empty:
            text += "=" + repr(p.default)
        out.append(text)
    return tuple(out)


def _public_callables() -> dict:
    found = {n: getattr(alphaharmonic, n) for n in EXPORTS}
    for module in MODULES:
        found.update((n, getattr(module, n)) for n in module.__all__)
    return {n: v for n, v in found.items() if callable(v)}


def test_exported_names():
    exported = {n for n, v in vars(alphaharmonic).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported == EXPORTS


def test_every_public_callable_is_pinned():
    assert set(_public_callables()) - {"DomainError"} == set(SIGNATURES)


def test_signatures():
    found = _public_callables()
    for name, want in SIGNATURES.items():
        assert _parameters(found[name]) == want, name


def test_cli_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: tuple(flag for action in p._actions
                         if not isinstance(action, argparse._HelpAction)
                         for flag in action.option_strings)
             for name, p in sub.choices.items()}
    assert found == CLI_FLAGS
