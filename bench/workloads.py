"""The four benchmark workloads.

Each workload has three parts:

- ``setup(nosol, seed, workdir)`` builds the inputs from the seed (timed as
  set-up, together with the import of ``nosol``);
- ``run_pass(inputs, tracer, workdir)`` runs one pass of the operations and
  returns a ``Pass`` holding the timed wall seconds and the outputs;
- ``check(inputs, passes)`` judges the outputs against the reference checker
  and closed forms computed here, never against stored output, and returns
  the list of problems found.

The program is driven only through ``nosol.cli.main`` and the public entry
points; nothing under ``nosol`` is changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

_clock = time.perf_counter

SEARCH_GRID = (4, 8, 16, 32, 64, 128, 256, 512)   # the --extended grid
SEARCH_GENS = (43, 69, 70)
SEARCH_MIN_RATE = 0.337                          # the paper's distinct-mode claim
OK_SEARCH_EXITS = (0, 3)      # 3 is "no row exhausted", even on a complete run

LIFT_SETS = ("two_var_1e6", "geometric_8e6", "thm3_10_11_31", "geometric_8e7")
PLANTED = "two_var_1e6_planted"
ORACLE_SETS = LIFT_SETS + (PLANTED,)
GEOMETRIC_8E7_BUDGET = 10 ** 7

FLOOR_MAX_B = 200
FLOOR_ARGMIN = (5, 6)
SWEEP = (2, 400, "0.3")                          # k, C, epsilon
ALPHA_Q = 0.499                                  # the CLI default
ALPHA_TARGETS = ((1.0, 4.74), (1.01, 4.77), (1.1, 5.03))


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    out: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)   # timed parts of the pass


def _cli(nosol, argv):
    """Run ``nosol.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nosol.cli.main(list(argv))
    return code, buf.getvalue()


def _last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cert_problems(label, cert, want_coeffs, mode):
    """Structure of a certificate file, read as plain JSON, and a reference
    check of its alphabet."""
    problems = []
    coeffs = tuple(int(c) for c in cert["equation"]["coeffs"])
    if coeffs != tuple(want_coeffs):
        problems.append(f"{label}: equation {coeffs} != {tuple(want_coeffs)}")
    digits = [int(d) for d in cert["digits"]]
    side = sum(c for c in coeffs if c > 0)
    if digits != sorted(set(digits)):
        problems.append(f"{label}: digits not sorted and distinct")
    if side * max(digits) >= int(cert["base"]):
        problems.append(f"{label}: base {cert['base']} carries")
    if cert.get("mode", "all") != mode:
        problems.append(f"{label}: mode {cert.get('mode')} != {mode}")
    rate = cert["rate"]
    if (int(rate["num_log"]), int(rate["den_log"])) != (len(digits), int(cert["base"])):
        problems.append(f"{label}: rate pair {rate} does not match the alphabet")
    elif len(digits) >= 2 and abs(rate["decimal"] - math.log(len(digits))
                                  / math.log(int(cert["base"]))) > 1e-12:
        problems.append(f"{label}: rate {rate['decimal']} != log|D|/log(base)")
    if ref.find_solution(coeffs, digits, distinct=(mode == "distinct")) is not None:
        problems.append(f"{label}: reference finds a solution in the alphabet")
    return problems


def _same_across(passes, key, label):
    first = passes[0].out.get(key)
    if any(p.out.get(key) != first for p in passes[1:]):
        return [f"{label} differ between passes"]
    return []


# ---------------------------------------------------------------------------
# search-distinct, search-all


class Search:
    """``nosol search --sym 43,69,70 [--distinct] --extended`` through cli.main."""

    def __init__(self, distinct):
        self.distinct = distinct
        self.mode = "distinct" if distinct else "all"

    def setup(self, nosol, seed, workdir):
        argv = ["search", "--sym", ",".join(map(str, SEARCH_GENS))]
        if self.distinct:
            argv.append("--distinct")
        argv += ["--extended", "--budget", "1000000000"]
        return {"nosol": nosol, "argv": argv, "coeffs": ref.symmetric(SEARCH_GENS)}

    def run_pass(self, inputs, tracer, workdir):
        out_dir = os.path.join(workdir, f"search-{len(os.listdir(workdir))}")
        os.makedirs(out_dir)
        cert_path = os.path.join(out_dir, "search.cert.json")
        argv = inputs["argv"] + ["-o", cert_path]
        start = _clock()
        code, text = _cli(inputs["nosol"], argv)
        wall = _clock() - start
        report = _last_json(text)
        failed = int(code not in OK_SEARCH_EXITS or report is None
                     or not os.path.exists(cert_path))
        out = {"exit": code}
        if not failed:
            out["rows"] = [(r["L"], tuple(r["digits"]), r["nodes"], r["rate"], r["best_rate"])
                           for r in report["table"]]
            out["best"] = report.get("best")
            out["cert"] = _read_json(cert_path)
            out["manifest"] = os.path.exists(cert_path + ".manifest.json")
        return Pass(wall, 1, failed, out)

    def check(self, inputs, passes):
        coeffs = inputs["coeffs"]
        side = sum(c for c in coeffs if c > 0)
        distinct = self.distinct
        problems = []
        done = [p for p in passes if not p.failed]
        if not done:
            return ["no search pass completed"]
        out = done[0].out
        grid = [side * m + 1 for m in SEARCH_GRID]
        if [r[0] for r in out["rows"]] != grid:
            problems.append(f"search grid {[r[0] for r in out['rows']]} != {grid}")
        checked = {}
        for L, digits, nodes, rate, best_rate in out["rows"]:
            if list(digits) != sorted(set(digits)) or (digits and max(digits) > (L - 1) // side):
                problems.append(f"L={L}: digits exceed the no-carry range")
            if len(digits) >= 2:
                tight = side * max(digits) + 1
                if abs(rate - math.log(len(digits)) / math.log(tight)) > 1e-12:
                    problems.append(f"L={L}: rate {rate} != log|D|/log(s*max+1)")
                if best_rate < rate:
                    problems.append(f"L={L}: best_rate below rate")
            if digits not in checked:
                checked[digits] = ref.find_solution(coeffs, digits, distinct)
            if checked[digits] is not None:
                problems.append(f"L={L}: reference finds {checked[digits]}")
        cert = out["cert"]
        problems += _cert_problems("best certificate", cert, coeffs, self.mode)
        best = out["best"]
        digits = [int(d) for d in cert["digits"]]
        if best is None or best["digits"] != digits or best["base"] != cert["base"]:
            problems.append("reported best differs from the certificate file")
        if int(cert["base"]) != side * max(digits) + 1:
            problems.append(f"best base {cert['base']} != s*max(digits)+1")
        rate = cert["rate"]["decimal"]
        if abs(rate - max(r[4] for r in out["rows"])) > 1e-12:
            problems.append("best certificate is not the best row rate")
        if not cert.get("verified"):
            problems.append("best certificate is not marked verified")
        if not out["manifest"]:
            problems.append("no manifest written beside the certificate")
        if distinct and rate < SEARCH_MIN_RATE:
            problems.append(f"distinct-mode rate {rate} < {SEARCH_MIN_RATE}")
        problems += _same_across(done, "rows", "search digits or node counts")
        problems += _same_across(done, "cert", "best certificates")
        return problems

    def fingerprint(self, passes):
        out = next((p.out for p in passes if not p.failed), {})
        return {"rows": [[r[0], len(r[1]), r[2]] for r in out.get("rows", [])],
                "best_rate": (out.get("cert") or {}).get("rate")}


# ---------------------------------------------------------------------------
# certify-lifts


class CertifyLifts:
    """README construct rows, then exhaustive_check on lifted sets."""

    CONSTRUCT_ROWS = (
        ("geometric", ["--m", "2", "--k", "3", "--N", "4096"]),
        ("two-var", ["--a", "5", "--b", "6"]),
        ("thm3", ["--a", "10", "--b", "11", "--c", "31", "--alpha", "0.3", "--alpha2", "0.03"]),
        ("section5", ["--d", "21"]),
    )

    def setup(self, nosol, seed, workdir):
        cfg = nosol.PipelineConfig(alpha=0.3, alpha2_small=0.03)
        thm3 = nosol.three_coefficient_pipeline(10, 11, 31, cfg)
        if thm3.certificate is None:
            raise RuntimeError(f"thm3 10/11/31 pipeline returned {thm3.status}")
        geometric = nosol.geometric_digits(2, 3)
        # (certificate, N, generators, d): the lift is every number below N
        # with d base-L digits from the alphabet D, |D|^d elements.  N is a
        # power of L wherever D is not an interval {0..m}, so the program's
        # lift keeps all of [0, N) in every case.
        sources = {
            "two_var_1e6": (nosol.two_var_digits(1, 2), 10 ** 6, (1, 2), 10),
            "geometric_8e6": (geometric, 8 ** 6, (1, 2, 4), 6),
            "thm3_10_11_31": (thm3.certificate, 261 ** 3, (10, 11, 31), 3),
            "geometric_8e7": (geometric, 8 ** 7, (1, 2, 4), 7),
        }
        sets = {}
        for name, (cert, N, gens, d) in sources.items():
            lifted = nosol.lift(cert, N)
            ds = cert.digit_set
            budget = GEOMETRIC_8E7_BUDGET if name == "geometric_8e7" else nosol.oracle.DEFAULT_BUDGET
            sets[name] = {
                "values": lifted.elements, "N": N, "d": d,
                "digits": ds.digits, "base": ds.base, "coeffs": ref.symmetric(gens),
                "query": nosol.SolutionQuery(ds.equation, lifted.elements, False, budget),
            }
        # plant x3 = x4 + 2*x2 - 2*x1 for x1, x2, x4 drawn from the set, so
        # that 2*x1 - 2*x2 + x3 - x4 = 0 gains a solution through x3
        base = sets["two_var_1e6"]
        values = base["values"]
        present = set(values)
        rng = random.Random(seed)
        while True:
            x1, x2, x4 = (rng.choice(values) for _ in range(3))
            x3 = x4 + 2 * x2 - 2 * x1
            if 0 <= x3 < base["N"] and x3 not in present:
                break
        planted = tuple(sorted(present | {x3}))
        sets[PLANTED] = {
            "values": planted, "coeffs": base["coeffs"],
            "query": nosol.SolutionQuery(base["query"].equation, planted),
        }
        return {"nosol": nosol, "sets": sets}

    def run_pass(self, inputs, tracer, workdir):
        nosol = inputs["nosol"]
        out_dir = os.path.join(workdir, f"certify-{len(os.listdir(workdir))}")
        os.makedirs(out_dir)
        out = {"construct": {}, "checks": {}}
        seconds = {}
        attempted = failed = 0
        start = _clock()
        for recipe, args in self.CONSTRUCT_ROWS:
            cert_path = os.path.join(out_dir, f"{recipe}.cert.json")
            attempted += 1
            code, _ = _cli(nosol, ["construct", recipe, *args, "-o", cert_path])
            if code != 0:
                failed += 1
            out["construct"][recipe] = (code, cert_path)
        for name in ORACLE_SETS:
            if name == PLANTED:             # the witness path is timed apart
                wall = _clock() - start
            attempted += 1
            check_start = _clock()
            out["checks"][name] = self._check(nosol, inputs["sets"][name]["query"], tracer, name)
            seconds[name] = _clock() - check_start
            failed += out["checks"][name][0] is None
        # construct outputs are read back outside the timed region
        for recipe, (code, cert_path) in out["construct"].items():
            cert = _read_json(cert_path) if code == 0 else None
            lifted = None
            if cert is not None and os.path.exists(cert_path + ".set"):
                with open(cert_path + ".set", encoding="utf-8") as fh:
                    lifted = [int(line) for line in fh if line.strip()]
            out["construct"][recipe] = (code, cert, lifted)
        return Pass(wall, attempted, failed, out, seconds)

    @staticmethod
    def _check(nosol, query, tracer, name):
        """(status, witness, nodes); status None when the check raised, as
        geometric_8e7 does while the auto engine choice sends it to the DFS."""
        try:
            with tracer.span(f"oracle.{name}"):
                solution, nodes = nosol.exhaustive_check(query)
        except nosol.BudgetExhausted as exc:
            return None, None, exc.nodes
        if solution is None:
            return "clean", None, nodes
        return "witness", tuple(solution.assignment), nodes

    def check(self, inputs, passes):
        sets = inputs["sets"]
        problems = []
        first = passes[0].out
        # the inputs: each lift is the digit-restricted set of its alphabet,
        # with |D|^d elements, and the alphabet is clean (the lift theorem)
        for name in LIFT_SETS:
            s = sets[name]
            if list(s["values"]) != ref.digit_lift(s["digits"], s["base"], s["N"]):
                problems.append(f"{name}: lift differs from the digit enumeration")
            if len(s["values"]) != len(s["digits"]) ** s["d"]:
                problems.append(f"{name}: {len(s['values'])} elements, not |D|^{s['d']}")
            if ref.find_solution(s["coeffs"], s["digits"]) is not None:
                problems.append(f"{name}: reference finds a solution in the alphabet")
            if ref.find_solution(s["coeffs"], s["values"]) is not None:
                problems.append(f"{name}: reference finds a solution in the lift")
        for p in passes:
            for name in LIFT_SETS:
                status = p.out["checks"][name][0]
                if status not in (None, "clean"):
                    problems.append(f"{name}: oracle reports {status} on a clean set")
            status, witness, _ = p.out["checks"][PLANTED]
            s = sets[PLANTED]
            if status != "witness" or not ref.is_witness(s["coeffs"], s["values"], witness, False):
                problems.append(f"{PLANTED}: no valid witness ({status}, {witness})")
        # README construct rows, read back as plain JSON
        expected_rows = {
            "geometric": (ref.symmetric((1, 2, 4)), [0, 1], 8),
            "two-var": (ref.symmetric((5, 6)), list(range(6)), 56),
            "thm3": (ref.symmetric((10, 11, 31)), [0, 1, 4, 5], 261),
            "section5": (ref.canonical((1, 1, 21, 21, -2, -42)), None, None),
        }
        for recipe, (coeffs, digits, base) in expected_rows.items():
            code, cert, lifted = first["construct"][recipe]
            if cert is None:
                problems.append(f"construct {recipe}: exit {code}")
                continue
            problems += _cert_problems(f"construct {recipe}", cert, coeffs, "all")
            if digits is not None and (cert["digits"], cert["base"]) != (digits, base):
                problems.append(f"construct {recipe}: alphabet {cert['digits']} base {cert['base']}")
            if recipe == "geometric" and lifted != ref.digit_lift([0, 1], 8, 4096):
                problems.append("construct geometric: lifted file differs from 2^4 digit strings")
        for key in ("construct", "checks"):
            problems += _same_across(passes, key, f"{key} outputs")
        return problems

    def fingerprint(self, passes):
        return {name: [status, nodes] for name, (status, _, nodes)
                in passes[0].out["checks"].items()}


# ---------------------------------------------------------------------------
# rate-claims


def _exact_sweep_B(k, C, eps):
    """Largest B with B <= C**(1/k - eps), in exact rational arithmetic."""
    t = Fraction(1, k) - Fraction(eps)
    B = 1
    while (B + 1) ** t.denominator <= C ** t.numerator:
        B += 1
    return B


class RateClaims:
    """The two-variable floor, the injectivity sweep, and the rate constants."""

    def setup(self, nosol, seed, workdir):
        pairs = [(a, b) for b in range(2, FLOOR_MAX_B + 1)
                 for a in range(1, b) if math.gcd(a, b) == 1]
        return {"nosol": nosol, "pairs": pairs}

    def run_pass(self, inputs, tracer, workdir):
        nosol = inputs["nosol"]
        pairs = inputs["pairs"]
        k, C, eps = SWEEP
        start = _clock()
        rates = [nosol.two_var_rate(a, b) for a, b in pairs]
        argmin = min(range(len(rates)), key=rates.__getitem__)
        with tracer.span("rates.sweep"):
            sweep = nosol.random_tuple_sweep(k, C, float(eps))
        with tracer.span("rates.alpha"):
            alphas = [nosol.alpha_optimal(beta, ALPHA_Q) for beta, _ in ALPHA_TARGETS]
        wall = _clock() - start
        out = {
            "floor": (pairs[argmin], rates[argmin].size, rates[argmin].base),
            "sweep": (sweep.k, sweep.C, sweep.B, sweep.total, sweep.bad),
            "alpha": [(p.alpha, p.beta, p.q, p.rate) for p in alphas],
        }
        return Pass(wall, 2 + len(alphas), 0, out)

    def check(self, inputs, passes):
        problems = []
        out = passes[0].out
        # floor: exact argmin against an independent float minimum
        pair, size, base = out["floor"]
        if pair != FLOOR_ARGMIN or (size, base) != (6, 56):
            problems.append(f"floor argmin {pair} Rate({size}, {base}), want (5, 6) Rate(6, 56)")
        floats = sorted((math.log(b) / math.log((a + b) * (b - 1) + 1), (a, b))
                        for a, b in inputs["pairs"])
        if floats[0][1] != FLOOR_ARGMIN:
            problems.append(f"float floor argmin {floats[0][1]} != {FLOOR_ARGMIN}")
        if floats[1][0] - floats[0][0] < 1e-9:
            problems.append("floor runner-up within 1e-9 of the minimum")
        # sweep: k=2 maps fail injectivity on [1,B]^2 exactly when
        # max(a1, a2) / gcd(a1, a2) <= B - 1
        k, C, eps = SWEEP
        B = _exact_sweep_B(k, C, eps)
        bad = sum(1 for a1 in range(1, C + 1) for a2 in range(1, C + 1)
                  if max(a1, a2) // math.gcd(a1, a2) <= B - 1)
        if out["sweep"] != (k, C, B, C ** k, bad):
            problems.append(f"sweep (k, C, B, total, bad) {out['sweep']} != {(k, C, B, C ** k, bad)}")
        for (alpha, beta, q, rate), (want_beta, target) in zip(out["alpha"], ALPHA_TARGETS):
            residual = abs(alpha * (1 + beta - alpha) - q * (1 - alpha) * (beta + alpha))
            if beta != want_beta or not 0 < alpha < 1 or residual > 1e-12:
                problems.append(f"alpha(beta={beta}): root {alpha}, residual {residual}")
            if abs(rate - alpha / (beta + alpha)) > 1e-15 or abs(1 / rate - target) > 0.005:
                problems.append(f"alpha(beta={beta}): 1/rate {1 / rate} not within 0.005 of {target}")
        for key in ("floor", "sweep", "alpha"):
            problems += _same_across(passes, key, f"{key} results")
        return problems

    def fingerprint(self, passes):
        out = passes[0].out
        return {"floor": out["floor"], "sweep_bad": out["sweep"][4]}


WORKLOADS = {
    "search-distinct": lambda: Search(distinct=True),
    "search-all": lambda: Search(distinct=False),
    "certify-lifts": CertifyLifts,
    "rate-claims": RateClaims,
}
