"""Command-line interface.

Subcommands expose the hypergeometric evaluator, the Dirichlet solver,
the bound tables, the verification suites, and the fixed-radius bound
comparison table.  Output is CSV (default) or a single JSON document,
built fully in memory and emitted only on success.

Exit codes: 0 success, 1 usage or I/O error, 2 domain error,
3 numerical non-convergence, 4 verification violation.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import io
import json
import math
import re
import sys

from .bounds import BOUND_IDS, evaluate_bound
from .errors import ConvergenceError, DomainError, IntegrandError
from .kernel import BoundaryData, derivative_pair, solve_dirichlet
from .specfun import hyp2f1_detailed
from .verify import (SUITE_NAMES, TrialSpec, default_figure_alphas,
                     figure1_data, inconclusive_rate, run_suite,
                     total_violations)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_VIOLATION = 4

_MAX_INCONCLUSIVE_RATE = 0.01
# figure1 evaluates two bounds per point and holds every row in memory
_MAX_FIGURE_POINTS = 100_000


# A leading minus on any float literal that float() reads (exponent, inf,
# nan, digit underscores), matched ignoring case: argparse's own pattern
# has no exponent, so "--alpha -1e-3" would read as a missing value
# followed by an option.
_NEGATIVE_NUMBER = (r"-(?:(?:\d[\d_]*(?:\.[\d_]*)?|\.\d[\d_]*)(?:e[-+]?\d[\d_]*)?"
                    r"|inf|infinity|nan)\Z")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1 and which reads
    every negative float literal as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(_NEGATIVE_NUMBER, re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(rows: list[dict], fmt: str, out: str) -> None:
    """Serialize rows and write them in one shot."""
    if fmt == "json":
        text = json.dumps(rows if len(rows) != 1 else rows[0], indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])
        text = buf.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_eval2f1(args) -> int:
    res = hyp2f1_detailed((args.a, args.b, args.c), args.x)
    _emit([{"value": res.value, "terms_used": res.terms_used,
            "transform": res.transform}], args.format, args.out)
    return EXIT_OK


def _load_boundary(path: str) -> BoundaryData:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return BoundaryData.from_json_dict(data)


def _cmd_solve(args) -> int:
    fstar = _load_boundary(args.boundary)
    z = complex(args.z_re, args.z_im)
    value = solve_dirichlet(args.alpha, fstar, z)
    pair = derivative_pair(args.alpha, fstar, z)
    _emit([{
        "f_re": value.real, "f_im": value.imag,
        "fz_re": pair.d_z.real, "fz_im": pair.d_z.imag,
        "fzbar_re": pair.d_zbar.real, "fzbar_im": pair.d_zbar.imag,
        "deriv_norm": pair.norm,
    }], args.format, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    ids = list(BOUND_IDS) if args.id == "all" else [args.id]
    if "M1" in ids and args.c is None:
        raise DomainError("bound M1 requires --c")
    rows = []
    for bound_id in ids:
        if bound_id == "M_PRIME" and args.id == "all" and args.alpha < 0:
            continue  # stated for alpha >= 0 only
        rep = evaluate_bound(bound_id, args.r, args.alpha,
                             c=args.c if bound_id == "M1" else None)
        rows.append({"bound_id": rep.bound_id, "r": rep.r, "alpha": rep.alpha,
                     "aux": rep.aux, "value": rep.value})
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = TrialSpec(seed=args.seed, n_trials=args.trials)
    reports = run_suite(args.suite, spec)
    rows = [{
        "theorem_id": r.theorem_id,
        "n_checked": r.n_checked,
        "n_violations": r.n_violations,
        "n_inconclusive": r.n_inconclusive,
        "worst_margin": r.worst_margin if math.isfinite(r.worst_margin) else None,
        "informational": r.informational,
    } for r in reports]
    _emit(rows, args.format, args.out)
    if total_violations(reports) > 0:
        worst = min((r.worst_margin for r in reports if not r.informational),
                    default=float("inf"))
        sys.stderr.write(f"verification violations detected (worst margin {worst:.3e})\n")
        return EXIT_VIOLATION
    if inconclusive_rate(reports) >= _MAX_INCONCLUSIVE_RATE:
        sys.stderr.write("inconclusive trial rate reached 1%\n")
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _grid_count(lo: float, hi: float, step: float) -> int:
    """Number of grid points lo + k*step <= hi + 1e-12, k = 0, 1, ...

    lo + k*step never decreases in k, so the points inside form a prefix
    0..n-1 and n is found by bisection, without building the grid.  Grids
    of more than _MAX_FIGURE_POINTS points are rejected.
    """
    def outside(k: int) -> bool:
        return lo + k * step > hi + 1e-12

    if not outside(_MAX_FIGURE_POINTS):
        raise DomainError(f"the alpha grid exceeds {_MAX_FIGURE_POINTS} points "
                          f"(--alpha-min {lo!r}, --alpha-max {hi!r}, --step {step!r})")
    return bisect.bisect_left(range(_MAX_FIGURE_POINTS + 1), True, key=outside)


def _cmd_figure1(args) -> int:
    if not args.alpha_min > -1.0:
        raise DomainError(f"--alpha-min must exceed -1, got {args.alpha_min!r}")
    if not (0.0 <= args.r < 1.0):
        raise DomainError(f"--r must lie in [0, 1), got {args.r!r}")
    if not 0 < args.step < math.inf:
        raise DomainError(f"--step must be positive and finite, got {args.step!r}")
    if not args.alpha_min <= args.alpha_max < math.inf:
        raise DomainError(f"--alpha-max must be finite and >= --alpha-min, got "
                          f"{args.alpha_min!r} and {args.alpha_max!r}")
    if (args.alpha_min, args.alpha_max, args.step) == (-0.95, 3.0, 0.05):
        alphas = default_figure_alphas()
    else:
        n = _grid_count(args.alpha_min, args.alpha_max, args.step)
        alphas = [args.alpha_min + k * args.step for k in range(n)]
    rows = [{"alpha": a, "M": m, "M2": m2} for a, m, m2 in figure1_data(args.r, alphas)]
    _emit(rows, args.format, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="alphaharm",
                     description="Weighted Poisson kernel toolkit: evaluate, solve, "
                                 "bound, verify.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("eval2f1", help="evaluate the Gauss hypergeometric series")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    add_io(p)
    p.set_defaults(func=_cmd_eval2f1)

    p = sub.add_parser("solve", help="evaluate the Dirichlet extension at a point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--boundary", required=True,
                   help="JSON file {degree, coefficients: [[re, im], ...]}")
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, default=0.0)
    add_io(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="evaluate named bounds at (r, alpha)")
    p.add_argument("--id", required=True, choices=BOUND_IDS + ("all",))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--c", type=float, default=None,
                   help="mean-to-sup ratio for the M1 bound")
    add_io(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the empirical certification suites")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figure1", help="bound comparison table over an alpha grid")
    p.add_argument("--r", type=float, default=0.99)
    p.add_argument("--alpha-min", type=float, default=-0.95)
    p.add_argument("--alpha-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.05)
    add_io(p)
    p.set_defaults(func=_cmd_figure1)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser `main` uses, built at its first call and kept: parsing
    leaves no state in it, and building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except (ConvergenceError, IntegrandError) as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGENCE
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
