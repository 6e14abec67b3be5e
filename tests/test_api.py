"""The public surface: exported names and the parameters of every public
function and class.

A change that adds, removes or renames a parameter or a CLI flag (a new
knob included) has to update these tables, and so has to say so.
"""

import argparse
import ast
import copy
import inspect
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import alphaharmonic
from alphaharmonic import bounds, kernel, quadrature, specfun, verify
from alphaharmonic.cli import build_parser

MODULES = (specfun, quadrature, kernel, bounds, verify)

EXPORTS = frozenset({
    "BOUND_IDS", "BoundReport", "BoundaryData", "ConvergenceError",
    "DerivativePair", "DomainError", "Hyp2F1Result", "IntegrandError",
    "QuadratureConfig", "QuadratureResult",
    "TrialReport", "TrialSpec", "alpha_laplacian_residual", "beta",
    "c_alpha", "check_identities", "check_proof_machinery",
    "check_schwarz", "check_schwarz_pick", "colonna_bound",
    "cos_power_integral", "derivative_pair", "evaluate_bound",
    "figure1_data", "hyp2f1", "hyp2f1_detailed",
    "integrate_periodic", "l1_mean_kernel",
    "lc_schwarz_pick_bound", "m1_bound", "m2_bound", "m_bound",
    "m_prime_bound", "modulus_power_integral", "poisson_kernel",
    "random_boundary", "ratio_integral_series",
    "run_suite", "schwarz_bound", "schwarz_pick_bound",
    "schwarz_pick_limit_bound", "solve_dirichlet", "thm_a_constant",
})

# Exported functions that no module of the library calls: the kernel and
# the weighted Laplacian's residual are the paper's own objects.
UNCALLED_EXPORTS = frozenset({"poisson_kernel", "alpha_laplacian_residual"})
# Public methods of exported classes that no module of the library calls:
# `BoundaryData.evaluate`, the Fourier series summed directly, is the tests'
# reference sampler.
UNCALLED_METHODS = frozenset({"BoundaryData.evaluate"})

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
    "TrialSpec": ("seed=0", "n_trials=100",
                  "alpha_set=(-0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0)",
                  "radius_set=(0.1, 0.3, 0.5, 0.7, 0.85)", "slack=1e-09"),
    "ViolationDetail": ("trial", "margin", "context"),
    "alpha_laplacian_residual": ("alpha", "fstar", "z", "h"),
    "beta": ("x", "y"),
    "c_alpha": ("alpha",),
    "check_identities": ("spec",),
    "check_proof_machinery": ("spec",),
    "check_schwarz": ("spec",),
    "check_schwarz_pick": ("spec",),
    "colonna_bound": ("r",),
    "cos_power_integral": ("n",),
    "default_figure_alphas": (),
    "derivative_pair": ("alpha", "fstar", "z"),
    "disk_point_value": ("z",),
    "evaluate_bound": ("bound_id", "r", "alpha", "c=None"),
    "figure1_data": ("r=0.99", "alphas=None"),
    "hyp2f1": ("params", "x"),
    "hyp2f1_detailed": ("params", "x"),
    "inconclusive_rate": ("reports",),
    "integrate_periodic": ("f", "config=None"),
    "l1_mean_kernel": ("alpha", "r"),
    "lc_schwarz_pick_bound": ("r", "alpha"),
    "m1_bound": ("r", "alpha", "c"),
    "m2_bound": ("r", "alpha"),
    "m_bound": ("r", "alpha"),
    "m_prime_bound": ("r", "alpha"),
    "modulus_power_integral": ("z", "beta"),
    "poisson_kernel": ("alpha", "z"),
    "random_boundary": ("seed", "degree", "target_sup_norm=1.0"),
    "ratio_integral_series": ("a", "b", "alpha", "beta"),
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


def test_bench_layer_names_follow_bound_ids_and_suites():
    """The benchmark names a per-layer time for every bound id and suite;
    renaming or removing one would leave its traced run's metric names
    out of step with BENCHMARK.json."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]
                if m["name"].startswith(("bounds.", "verify.")) and m["name"].endswith(".s")}
    assert declared == ({f"bounds.{bid}.s" for bid in bounds.BOUND_IDS}
                        | {f"verify.{suite}.s" for suite in verify.SUITE_NAMES})


def _names_in(node) -> set:
    """Identifiers that node names in code: variables, attributes, and
    strings that are exactly an identifier (as `verify._SUITES` holds)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def test_every_exported_function_is_called_in_the_library():
    """Each exported function is named in the library's code outside its
    own def, its module's __all__ and __init__.py, unless it is one of
    the paper's objects listed in UNCALLED_EXPORTS, and so is each public
    method of an exported class, but those in UNCALLED_METHODS; a routine
    only tests use does not belong in the public API."""
    named = set()
    for path in Path(alphaharmonic.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                continue
            names = _names_in(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            named |= names
    functions = {n for n in EXPORTS if inspect.isfunction(getattr(alphaharmonic, n))}
    assert functions - named == UNCALLED_EXPORTS
    classes = [c for c in map(vars(alphaharmonic).get, EXPORTS) if inspect.isclass(c)]
    methods = {f"{c.__name__}.{m}" for c in classes for m in vars(c)
               if not m.startswith("_") and callable(getattr(c, m))}
    assert {m for m in methods if m.split(".")[1] not in named} == UNCALLED_METHODS


def test_number_checks_live_in_specfun():
    """specfun is the one argument gate: no other module names the abstract
    number types `numbers.Real`, `numbers.Integral` or `numbers.Complex`."""
    users = set()
    for path in Path(alphaharmonic.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module == "numbers" for a in n.names}
        if imported & {"Real", "Integral", "Complex"} or any(
                isinstance(n, ast.Attribute) and n.attr in ("Real", "Integral", "Complex")
                and getattr(n.value, "id", None) == "numbers" for n in ast.walk(tree)):
            users.add(path.name)
    assert users == {"specfun.py"}
    assert not hasattr(kernel, "_is_number") and not hasattr(verify, "_check_count")


def test_series_sums_are_named_only_in_specfun_and_verify():
    """Every route to a hypergeometric value lives in specfun, so no other
    module names `_series_sum` or `_two_terms`; verify's second routes sum
    raw series on purpose."""
    users = set()
    for path in Path(alphaharmonic.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _names_in(tree) | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
        if names & {"_series_sum", "_two_terms"}:
            users.add(path.name)
    assert users == {"specfun.py", "verify.py"}


def _owners(tree) -> dict:
    """node -> name of the innermost function around it (ast.walk goes
    outside in)."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            owner.update(dict.fromkeys(ast.walk(fn), getattr(fn, "name", "<lambda>")))
    return owner


def test_one_cancellation_judge():
    """`specfun._two_terms` alone weighs cancellation: no other function in
    the package reads `_CONNECTION_ULPS` or compares anything with `_REL_TOL`,
    so a second cancellation rule cannot creep back."""
    readers = set()
    for path in Path(alphaharmonic.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _owners(tree)
        for node in ast.walk(tree):
            compared = isinstance(node, ast.Compare) and "_REL_TOL" in _names_in(node)
            if compared or (isinstance(node, ast.Name) and node.id == "_CONNECTION_ULPS"
                            and isinstance(node.ctx, ast.Load)):
                readers.add(f"{path.stem}.{owner.get(node, '<module>')}")
    assert readers == {"specfun._two_terms"}


def _signed_terms(node, sign=1):
    """(sign, term) for each term of the sum or difference node."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        yield from _signed_terms(node.left, sign)
        yield from _signed_terms(node.right, -sign if isinstance(node.op, ast.Sub) else sign)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield from _signed_terms(node.operand, -sign)
    else:
        yield sign, node


def test_one_lgamma_difference_routine():
    """Differences of ln Gamma in specfun come from `_lgamma_slope`, whose
    slope does not cancel: no sum there adds one math.lgamma value and
    subtracts another, where values in the hundreds would leave errors of
    1e-12, but `_predicted_terms`' estimate of a term count.  verify's
    oracles are a second route and keep their own."""
    path = Path(alphaharmonic.__file__).parent / "specfun.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    users = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            signs = {sign for sign, term in _signed_terms(node)
                     if isinstance(term, ast.Call) and ast.unparse(term.func) == "math.lgamma"}
            if signs == {1, -1}:
                users.add(owner.get(node, "<module>"))
    assert users == {"_predicted_terms"}


def test_verify_names_no_cumprod():
    """The proof-machinery facts are checked by their closed forms, so
    verify.py never names `cumprod`: the brute-force product of the
    Pochhammer ratios lives only in the tests, as their reference."""
    path = Path(alphaharmonic.__file__).parent / "verify.py"
    assert "cumprod" not in _names_in(ast.parse(path.read_text(encoding="utf-8")))


def test_specfun_imports_no_numpy():
    """Every series is summed term by term in Python floats, so specfun.py
    neither imports nor names numpy: numpy serves quadrature, kernel and
    verify only."""
    path = Path(alphaharmonic.__file__).parent / "specfun.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "numpy" not in imported
    assert not {"numpy", "np"} & _names_in(tree)


_NON_NUMERIC_CALLS = {
    "m_bound alpha": (lambda: bounds.m_bound(0.5, "1"), "alpha"),
    "m_bound bool alpha": (lambda: bounds.m_bound(0.5, True), "alpha"),
    "schwarz_bound r": (lambda: bounds.schwarz_bound("0.5", 1.0), "r"),
    "m1_bound c": (lambda: bounds.m1_bound(0.5, 1.0, "0.5"), "c"),
    "hyp2f1 a": (lambda: specfun.hyp2f1(("1", 1, "2"), 0.5), "a"),
    "hyp2f1 c": (lambda: specfun.hyp2f1((1, 1, "2"), 0.5), "c"),
    "hyp2f1 x": (lambda: specfun.hyp2f1((1, 1, 2), "x"), "x"),
    "hyp2f1 string x": (lambda: specfun.hyp2f1((1, 1, 2), "0.5"), "x"),
    "solve_dirichlet z": (lambda: kernel.solve_dirichlet(
        0.5, kernel.BoundaryData([1]), "0.3"), "z"),
    "solve_dirichlet alpha": (lambda: kernel.solve_dirichlet(
        "x", kernel.BoundaryData([1]), 0.3), "alpha"),
    "disk_point_value bool": (lambda: kernel.disk_point_value(False), "z"),
    "beta string x": (lambda: specfun.beta("1", 2.0), "x"),
    "beta bool x": (lambda: specfun.beta(True, 1.0), "x"),
    "beta infinite x": (lambda: specfun.beta(math.inf, 1.0), "x"),
    "cos_power_integral bool n": (lambda: quadrature.cos_power_integral(True), "n"),
    "cos_power_integral float n": (lambda: quadrature.cos_power_integral(2.5), "n"),
    "cos_power_integral string n": (lambda: quadrature.cos_power_integral("3"), "n"),
    "modulus_power_integral string z": (
        lambda: quadrature.modulus_power_integral("x", 1.0), "z"),
    "modulus_power_integral string beta": (
        lambda: quadrature.modulus_power_integral(0.5, "1"), "beta"),
    "modulus_power_integral bool beta": (
        lambda: quadrature.modulus_power_integral(0.5, True), "beta"),
    "ratio_integral_series nan alpha": (
        lambda: quadrature.ratio_integral_series(0.5, 0.1, math.nan, 1.0), "alpha"),
    "ratio_integral_series inf alpha": (
        lambda: quadrature.ratio_integral_series(0.5, 0.1, math.inf, 1.0), "alpha"),
    "ratio_integral_series nan beta": (
        lambda: quadrature.ratio_integral_series(0.5, 0.1, 1.0, math.nan), "beta"),
    "ratio_integral_series inf beta": (
        lambda: quadrature.ratio_integral_series(0.5, 0.1, 1.0, math.inf), "beta"),
    "ratio_integral_series string a": (
        lambda: quadrature.ratio_integral_series("0.5", 0.1, 1.0, 1.0), "a"),
    "alpha_laplacian_residual string h": (lambda: kernel.alpha_laplacian_residual(
        1.0, kernel.BoundaryData([1]), 0.1, "0.01"), "h"),
    "evaluate_bound string r": (lambda: bounds.evaluate_bound("M", "abc", 0.5), "r"),
    "evaluate_bound string c": (lambda: bounds.evaluate_bound("M1", 0.5, 0.5, "x"), "c"),
    "evaluate_bound complex r": (lambda: bounds.evaluate_bound("M", 1j, 0.5), "r"),
    "hyp2f1 two params": (lambda: specfun.hyp2f1((1, 2), 0.5), "params"),
    "hyp2f1 scalar params": (lambda: specfun.hyp2f1(5, 0.5), "params"),
    "BoundaryData strings": (lambda: kernel.BoundaryData(["1", "2", "3"]), "coefficients"),
    "BoundaryData bools": (lambda: kernel.BoundaryData([True, False, True]), "coefficients"),
    "QuadratureConfig float n_initial": (
        lambda: quadrature.QuadratureConfig(n_initial=256.0), "n_initial"),
    "QuadratureConfig string rel_tol": (
        lambda: quadrature.QuadratureConfig(rel_tol="1"), "rel_tol"),
    "QuadratureConfig bool counts": (
        lambda: quadrature.QuadratureConfig(n_initial=True, n_max=True), "n_initial"),
    "solve_dirichlet list fstar": (lambda: kernel.solve_dirichlet(0.5, [1.0], 0.3), "fstar"),
    "derivative_pair None fstar": (lambda: kernel.derivative_pair(0.5, None, 0.3), "fstar"),
    "alpha_laplacian_residual array fstar": (lambda: kernel.alpha_laplacian_residual(
        1.0, np.ones(3), 0.1, 0.01), "fstar"),
    "thm_a_constant None": (lambda: verify.thm_a_constant(None), "fstar"),
    "evaluate_bound list id": (lambda: bounds.evaluate_bound(["M"], 0.5, 0.5), "bound_id"),
    "BoundaryData.scaled string factor": (
        lambda: kernel.BoundaryData([1.0, 0.5, 1.0]).scaled("2"), "factor"),
    "BoundaryData.scaled None factor": (
        lambda: kernel.BoundaryData([1.0, 0.5, 1.0]).scaled(None), "factor"),
    "BoundaryData.scaled bool factor": (
        lambda: kernel.BoundaryData([1.0, 0.5, 1.0]).scaled(True), "factor"),
}


@pytest.mark.parametrize("call", sorted(_NON_NUMERIC_CALLS))
def test_non_numeric_input_raises_domain_error_naming_it(call):
    """Strings and bools are not numbers, NaN or inf lie outside every
    domain here, and a list or None is neither boundary data nor a bound
    id: each entry point rejects them with a DomainError that names the
    argument, never parses them."""
    fn, name = _NON_NUMERIC_CALLS[call]
    with pytest.raises(alphaharmonic.DomainError, match=f"^{name} must be"):
        fn()


# Every per-call result with one instance of it: an immutable named tuple.
_RECORDS = {
    "BoundReport": lambda: bounds.evaluate_bound("M1", 0.5, 1.0, 0.25),
    "Hyp2F1Result": lambda: specfun.hyp2f1_detailed((0.5, 0.5, 1.0), 0.75),
    "DerivativePair": lambda: kernel.derivative_pair(
        1.0, kernel.BoundaryData([0.5, 1.0, 0.25j]), 0.3 + 0.2j),
    "QuadratureResult": lambda: quadrature.integrate_periodic(lambda t: np.cos(t) ** 2),
}
_RECORD_FIELDS = {
    "BoundReport": ("bound_id", "r", "alpha", "aux", "value", "note"),
    "Hyp2F1Result": ("value", "terms_used", "transform"),
    "DerivativePair": ("d_z", "d_zbar", "norm"),
    "QuadratureResult": ("value", "error_estimate", "nodes_used", "converged"),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
class TestRecords:
    """The per-call results are immutable named tuples: their fields, in
    order, cannot be rebound, and copies and pickles are equal records."""

    def test_fields_in_order(self, name):
        record = _RECORDS[name]()
        assert type(record) is getattr(alphaharmonic, name)
        assert isinstance(record, tuple)
        assert record._fields == _RECORD_FIELDS[name]
        assert tuple(record) == tuple(getattr(record, f) for f in _RECORD_FIELDS[name])
        assert repr(record).startswith(f"{name}({_RECORD_FIELDS[name][0]}=")

    def test_fields_cannot_be_set(self, name):
        record = _RECORDS[name]()
        for field in _RECORD_FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_records(self, name, round_trip):
        record = _RECORDS[name]()
        again = round_trip(record)
        assert type(again) is type(record)
        assert again == record


class TestDerivedFields:
    def test_norm_follows_the_derivatives(self):
        pair = kernel.DerivativePair(3 + 4j, -1j)
        assert pair.norm == 6.0
        moved = pair._replace(d_zbar=2.0)
        assert moved == (3 + 4j, 2.0, 7.0)
        with pytest.raises(TypeError):
            pair._replace(norm=1.0)
        with pytest.raises(TypeError):  # norm is derived, never given
            kernel.DerivativePair(1j, 1j, 2.0)

    def test_bound_value_is_checked_on_every_build(self):
        report = bounds.evaluate_bound("SCHWARZ_2F1", 0.5, 1.0)
        assert report._replace(value=2.0).value == 2.0
        for build in (lambda: report._replace(value=-1.0),
                      lambda: bounds.BoundReport._make((*report[:4], math.nan)),
                      lambda: bounds.BoundReport("M", 0.5, 1.0, None, -0.5)):
            with pytest.raises(alphaharmonic.DomainError, match="non-negative"):
                build()
