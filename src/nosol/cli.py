"""Command-line surface: verify, construct, search, sweep, alpha, rate.

Exit codes: 0 verified clean, 1 witness found, 2 budget exhausted,
3 best-effort only (nothing exhausted), 64 malformed input, 65 recipe
precondition violation.  The subcommands raise; main() alone maps an
exception to its exit code.  NOSOL_BUDGET overrides the default node budget.
Every emitted certificate file gets a sibling .manifest.json recording the
command, config, wall time, and budget that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .certificates import (
    MODE_ALL,
    MODE_DISTINCT,
    Certificate,
    atomic_write_text,
    load_certificate,
    make_digit_set,
    read_certificate,
    save_certificate,
    tight_base,
)
from .constructions import (
    PipelineConfig,
    coprime_power_digits,
    distinct_var_digits,
    geometric_digits,
    lift,
    double_progression_digits,
    shift_transfer,
    spaced_digits,
    three_coefficient_pipeline,
    two_var_digits,
)
from .equations import make_equation, make_symmetric, normalize_generators
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    SolutionQuery,
    exhaustive_check,
)
from .rates import DEFAULT_Q, alpha_optimal, rate_report, random_tuple_sweep
from .search import SearchConfig, max_digit_set, tight_rate

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_BUDGET = 2
EXIT_BEST_EFFORT = 3
EXIT_USAGE = 64
EXIT_PRECONDITION = 65

# the options each construct recipe needs, by argparse destination
RECIPE_ARGS = {
    "geometric": ("m", "k"),
    "two-var": ("a", "b"),
    "coprime-power": ("a", "b", "k"),
    "spaced": ("gens", "s_factor"),
    "thm3": ("a", "b", "c"),
    "section5": ("d",),
    "distinct-var": ("m",),
    "shift": ("cert", "i", "j"),
}

AUTO_GRID = (4, 8, 16, 32, 64, 128)
EXTENDED_GRID = AUTO_GRID + (256, 512)


class _UsageError(Exception):
    """Malformed input found after argument parsing; main() exits 64."""


def _positive_int(text: str) -> int:
    """argparse type of --budget and --N."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budget(args) -> int:
    """--budget, else NOSOL_BUDGET, else the oracle's default."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("NOSOL_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return _positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise _UsageError(
            f"NOSOL_BUDGET must be an integer of at least 1, got {raw!r}") from None


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    sys.stdout.flush()


def _write_manifest(cert_path: str, argv, budget: int, started: float,
                    config: dict) -> None:
    manifest = {
        "schema": 1,
        "command": ["nosol"] + list(argv),
        "tool_version": __version__,
        "wall_seconds": round(time.monotonic() - started, 3),
        "budget": budget,
        "config": config,
        "certificates": [os.path.basename(cert_path)],
    }
    atomic_write_text(cert_path + ".manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _equation_from_args(args):
    if getattr(args, "sym", None):
        gens = normalize_generators(int(x) for x in args.sym.split(","))
        return make_symmetric(gens)
    if getattr(args, "eq", None):
        return make_equation(int(x) for x in args.eq.split(","))
    raise ValueError("specify an equation with --sym or --eq")


def _refuse(message, names) -> None:
    """Raise _UsageError, message then the flags of names, if any."""
    if names:
        raise _UsageError(message + ", ".join(
            "--" + name.replace("_", "-") for name in names))


def _read_set(args) -> tuple[int, ...]:
    if args.set is not None:
        return tuple(sorted({int(x) for x in args.set.split(",")}))
    if args.set_file is None:
        raise _UsageError("specify a set with --set or --set-file")
    with open(args.set_file, encoding="utf-8") as fh:
        return tuple(sorted({int(line) for line in fh if line.strip()}))


# ---------------------------------------------------------------------------


def cmd_verify(args, argv) -> int:
    budget = _budget(args)
    if args.cert:
        _refuse("--cert cannot be combined with ", [name for name in (
            "sym", "eq", "set", "set_file", "distinct")
            if getattr(args, name) not in (None, False)])
        # the one oracle run is the check below, under the user's budget
        cert = read_certificate(args.cert)
        eq = cert.equation
        values = cert.digit_set.digits
        distinct = cert.digit_set.mode == MODE_DISTINCT
    else:
        eq = _equation_from_args(args)
        values = _read_set(args)
        distinct = args.distinct
    solution, nodes = exhaustive_check(SolutionQuery(eq, values, distinct, budget))
    if solution is None:
        _emit({"status": "no-nontrivial-solution", "nodes": nodes,
               "set_size": len(values), "mode": "distinct" if distinct else "all"})
        return EXIT_OK
    _emit({"status": "witness", "witness": list(solution.assignment),
           "nodes": nodes})
    return EXIT_WITNESS


def cmd_construct(args, argv) -> int:
    started = time.monotonic()
    budget = _budget(args)
    _refuse(f"recipe {args.recipe} needs ", [
        name for name in RECIPE_ARGS[args.recipe] if getattr(args, name) is None])
    tuning = ("alpha", "alpha2", "literal_constants")   # read by thm3 alone
    reads = RECIPE_ARGS[args.recipe] + (tuning if args.recipe == "thm3" else ())
    _refuse(f"recipe {args.recipe} does not read ", [
        name for name in dict.fromkeys(sum(RECIPE_ARGS.values(), ()) + tuning)
        if name not in reads and getattr(args, name) is not None])
    if args.set_out is not None and args.N is None:
        raise _UsageError("--set-out needs --N")
    if args.recipe == "geometric":
        cert = geometric_digits(args.m, args.k, budget)
    elif args.recipe == "two-var":
        cert = two_var_digits(args.a, args.b, budget)
    elif args.recipe == "coprime-power":
        cert = coprime_power_digits(args.a, args.b, args.k, budget)
    elif args.recipe == "spaced":
        gens = [int(x) for x in args.gens.split(",")]
        cert = spaced_digits(gens, args.s_factor, budget)
    elif args.recipe == "thm3":
        cfg = PipelineConfig(alpha=args.alpha, budget=budget,
                             literal_constants=bool(args.literal_constants))
        if args.alpha2 is not None:
            cfg.alpha2_small = args.alpha2
        result = three_coefficient_pipeline(args.a, args.b, args.c, cfg)
        if result.status != "certified":
            _emit({"status": result.status, "case": result.case,
                   "plan": result.plan})
            return EXIT_BUDGET
        cert = result.certificate
    elif args.recipe == "section5":
        cert = double_progression_digits(args.d, budget)
    elif args.recipe == "distinct-var":
        cert = distinct_var_digits(args.m, budget)
    elif args.recipe == "shift":
        source = load_certificate(args.cert, budget)
        i_shifts = [int(x) for x in args.i.split(",")]
        j_shifts = [int(x) for x in args.j.split(",")]
        cert = shift_transfer(source, i_shifts, j_shifts, budget)

    # a lift that fails, or that is too large to materialise, must leave
    # no certificate behind, so it runs first
    if args.N is not None:
        lifted = lift(cert, args.N, budget)
        elements = lifted.elements
    out = args.out or f"{args.recipe}.cert.json"
    save_certificate(cert, out)
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "out") and v is not None}
    _write_manifest(out, argv, budget, started, config)

    if args.N is None:
        _emit({"certificate": out, "rate": cert.rate.to_json()})
        return EXIT_OK
    set_path = args.set_out or out + ".set"
    atomic_write_text(set_path, "\n".join(str(x) for x in elements) + "\n")
    _emit({"certificate": out, "rate": cert.rate.to_json(),
           "lifted_size": lifted.size, "lifted_file": set_path})
    return EXIT_OK


def cmd_search(args, argv) -> int:
    started = time.monotonic()
    budget = _budget(args)
    eq = _equation_from_args(args)
    chosen = [flag for flag, given in (("--L", args.L is not None),
                                       ("--L-grid", args.L_grid != "auto"),
                                       ("--extended", args.extended)) if given]
    if len(chosen) > 1:
        raise _UsageError(f"{' and '.join(chosen)} cannot be combined")
    if args.L is not None:
        grid = [args.L]
    elif args.L_grid != "auto":
        grid = [int(x) for x in args.L_grid.split(",")]
    else:
        factors = EXTENDED_GRID if args.extended else AUTO_GRID
        grid = [eq.side_sum * m + 1 for m in factors]
    # a bad base must fail before any base is searched
    for L in grid:
        if L < 2:
            raise _UsageError(f"base must be at least 2, got {L}")

    report = _emit if args.progress else None
    mode = "exact" if args.exact else "anytime"
    rows = []
    best = None     # (rate, digits, L, result) of the best alphabet so far
    per_l_budget = max(budget // len(grid), 1)
    for L in grid:
        cfg = SearchConfig(budget=per_l_budget, mode=mode, report=report)
        result = max_digit_set(eq, L, cfg, distinct=args.distinct)
        rates = []
        for digits in (result.digits, result.best_rate_digits):
            rate = tight_rate(eq, digits)
            rates.append(rate)
            if rate is not None and (best is None or rate > best[0]):
                best = (rate, digits, L, result)
        rows.append({"L": L, "size": len(result.digits),
                     "digits": list(result.digits),
                     "rate": 0.0 if rates[0] is None else rates[0].decimal,
                     "best_rate": max((r.decimal for r in rates if r is not None),
                                      default=0.0),
                     "exhausted": result.exhausted,
                     "nodes": result.nodes})

    out = {"schema": 1, "table": rows}
    if best is not None:
        _, digits, L, result = best
        best_cert = Certificate(
            make_digit_set(tight_base(eq, digits), digits, eq,
                           MODE_DISTINCT if args.distinct else MODE_ALL),
            verified=True, oracle_nodes=result.nodes,
            meta={"kind": "search", "search_base": L,
                  "exhausted": result.exhausted})
        cert_path = args.out or "search.cert.json"
        save_certificate(best_cert, cert_path)
        _write_manifest(cert_path, argv, budget, started,
                        {"grid": grid, "mode": mode, "distinct": args.distinct})
        out["best"] = {"certificate": cert_path,
                       "rate": best_cert.rate.to_json(),
                       "base": best_cert.digit_set.base,
                       "digits": list(best_cert.digit_set.digits)}
    _emit(out)
    return EXIT_OK if any(row["exhausted"] for row in rows) else EXIT_BEST_EFFORT


def cmd_sweep(args, argv) -> int:
    rep = random_tuple_sweep(args.k, args.C, args.eps, samples=args.samples,
                             seed=args.seed, budget=_budget(args))
    _emit(rep.to_json())
    return EXIT_OK if rep.bound_ok else EXIT_WITNESS


def cmd_alpha(args, argv) -> int:
    params = alpha_optimal(args.beta, args.q)
    _emit({"schema": 1, "alpha": params.alpha, "beta": params.beta,
           "q": params.q, "rate": params.rate,
           "one_over_rate": 1.0 / params.rate, "residual": params.residual})
    return EXIT_OK


def cmd_rate(args, argv) -> int:
    _emit(rate_report(load_certificate(args.cert, _budget(args))))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nosol",
        description="Construct, search for, and certify solution-free sets "
                    "for invariant linear equations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_equation_args(p):
        p.add_argument("--sym", help="comma-separated symmetric generators")
        p.add_argument("--eq", help="comma-separated raw coefficients (sum 0)")

    p = sub.add_parser("verify", help="exhaustively check a set or certificate")
    add_equation_args(p)
    p.add_argument("--set", help="inline comma-separated integers")
    p.add_argument("--set-file", help="file of decimal integers, one per line")
    p.add_argument("--cert", help="certificate JSON to re-verify")
    p.add_argument("--distinct", action="store_true",
                   help="require all variables pairwise distinct")
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="run a named construction")
    p.add_argument("recipe", choices=list(RECIPE_ARGS))
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s-factor", type=int, help="spacing factor for spaced")
    p.add_argument("--gens", help="comma-separated generators for spaced")
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--literal-constants", action="store_true", default=None,
                   help="use the literal asymptotic thresholds in thm3")
    p.add_argument("--cert", help="source certificate for shift")
    p.add_argument("--i", help="comma-separated left shifts for shift")
    p.add_argument("--j", help="comma-separated right shifts for shift")
    p.add_argument("--N", type=_positive_int, help="also materialize the lift below N")
    p.add_argument("--set-out", help="path for the lifted set file")
    p.add_argument("-o", "--out", help="certificate output path")
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="search digit alphabets over a base grid")
    add_equation_args(p)
    p.add_argument("--L", type=int, help="single base instead of a grid")
    p.add_argument("--L-grid", dest="L_grid", default="auto",
                   help="'auto' or comma-separated explicit bases")
    p.add_argument("--extended", action="store_true",
                   help="extend the auto grid to s*512+1")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--distinct", action="store_true")
    p.add_argument("--progress", action="store_true",
                   help="stream line-delimited JSON progress events")
    p.add_argument("-o", "--out", help="best certificate output path")
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="random-tuple injectivity sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("alpha", help="three-coefficient rate optimization")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--q", type=float, default=DEFAULT_Q)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("rate", help="rate report for a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(func=cmd_rate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args, argv)
    except BudgetExhausted as exc:
        _emit({"status": "budget-exhausted", "nodes": exc.nodes})
        return EXIT_BUDGET
    except (_UsageError, ValueError, OSError) as exc:
        # a recipe's rejected input is a precondition violation
        precondition = (args.command == "construct"
                        and not isinstance(exc, _UsageError))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION if precondition else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
