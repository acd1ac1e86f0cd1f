import json
import os
import random
import subprocess
import sys

import pytest

import nosol
from nosol import cli, constructions, oracle, search
from nosol.cli import main
from nosol.certificates import Certificate, load_certificate, make_digit_set
from nosol.constructions import geometric_digits, lift, two_var_digits
from nosol.certificates import save_certificate
from nosol.equations import is_dissociated, make_symmetric
from nosol.search import SearchConfig, max_digit_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines() if line]
    return code, (lines[-1] if lines else None)


def test_verify_clean(capsys):
    code, report = run(capsys, "verify", "--sym", "1,2", "--set", "0,1")
    assert code == 0
    assert report["status"] == "no-nontrivial-solution"


def test_verify_witness(capsys):
    code, report = run(capsys, "verify", "--sym", "1,1", "--set", "1,2,3,4")
    assert code == 1
    witness = report["witness"]
    assert len(witness) == 4
    assert witness[0] + witness[1] == witness[2] + witness[3]


@pytest.mark.parametrize("argv,code,engine", [
    # sym(1,2) is dissociated: all mode takes the sum scan, clean and not
    (["--sym", "1,2", "--set", "0,1"], 0, "scan"),
    (["--sym", "1,2", "--set", "0,1,2,3"], 1, "scan"),
    # distinct mode and a repeated generator never do
    (["--sym", "1,2", "--set", "0,1", "--distinct"], 0, "dfs"),
    (["--sym", "1,1", "--set", "1,2,3,4"], 1, "mitm"),
])
def test_verify_names_the_engine_that_answered(capsys, argv, code, engine):
    got, report = run(capsys, "verify", *argv)
    assert (got, report["engine"]) == (code, engine)


def test_verify_budget_exhausted(capsys):
    code, report = run(capsys, "verify", "--sym", "1,1",
                       "--set", ",".join(str(i) for i in range(1, 40)),
                       "--budget", "10")
    assert code == 2
    assert report["status"] == "budget-exhausted"


def test_verify_malformed(capsys):
    code = main(["verify", "--sym", "1,2", "--set", "zero,one"])
    assert code == 64
    code = main(["verify", "--set", "0,1"])
    assert code == 64


def test_verify_set_file(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("1\n2\n5\n11\n")
    code, report = run(capsys, "verify", "--sym", "1,1",
                       "--set-file", str(path))
    assert code == 0


def test_verify_certificate_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "c.json"
    save_certificate(two_var_digits(1, 2), str(cert_path))
    code, report = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0


@pytest.mark.parametrize("budget,code,status", [
    (10, 2, "budget-exhausted"), (1000, 0, "no-nontrivial-solution")])
def test_verify_cert_runs_oracle_once_under_budget(tmp_path, capsys,
                                                   monkeypatch, budget,
                                                   code, status):
    # the 10/11/31 alphabet {0,1,4,5}: its sum scan takes 4+16+64 nodes
    cert_path = tmp_path / "thm3.json"
    save_certificate(Certificate(make_digit_set(261, [0, 1, 4, 5],
                                                make_symmetric([10, 11, 31])),
                                 verified=True), str(cert_path))
    limits = []

    class RecordingBudget(oracle._Budget):
        def __init__(self, limit):
            limits.append(limit)
            super().__init__(limit)

    monkeypatch.setattr(oracle, "_Budget", RecordingBudget)
    got, report = run(capsys, "verify", "--cert", str(cert_path),
                      "--budget", str(budget))
    assert (got, report["status"]) == (code, status)
    assert limits == [budget]


def test_construct_geometric_with_lift(tmp_path, capsys):
    out = tmp_path / "geom.json"
    setfile = tmp_path / "geom.set"
    code, report = run(capsys, "construct", "geometric", "--m", "2", "--k", "3",
                       "--N", "4096", "-o", str(out), "--set-out", str(setfile))
    assert code == 0
    assert report["lifted_size"] == 16
    values = [int(x) for x in setfile.read_text().split()]
    assert len(values) == 16
    cert = load_certificate(str(out))
    assert cert.digit_set.base == 8
    manifest = json.loads((tmp_path / "geom.json.manifest.json").read_text())
    assert manifest["certificates"] == ["geom.json"]
    assert manifest["tool_version"]


def test_construct_thm3(tmp_path, capsys):
    out = tmp_path / "thm3.json"
    code, report = run(capsys, "construct", "thm3", "--a", "10", "--b", "11",
                       "--c", "31", "--alpha", "0.3", "--alpha2", "0.03",
                       "-o", str(out))
    assert code == 0
    cert = load_certificate(str(out))
    assert cert.digit_set.digits == (0, 1, 4, 5)
    assert cert.digit_set.base == 261


def test_construct_section5(tmp_path, capsys):
    out = tmp_path / "s5.json"
    code, report = run(capsys, "construct", "section5", "--d", "5", "-o", str(out))
    assert code == 0
    cert = load_certificate(str(out))
    assert cert.digit_set.base == 23
    assert cert.digit_set.digits == (0, 1)


def test_construct_precondition_violation(tmp_path, capsys):
    code = main(["construct", "two-var", "--a", "2", "--b", "4",
                 "-o", str(tmp_path / "x.json")])
    assert code == 65


@pytest.mark.parametrize("argv,flags", [
    (["geometric", "--k", "3"], "--m"),
    (["spaced", "--gens", "1,2"], "--s-factor"),
    (["shift"], "--cert, --i, --j"),
])
def test_construct_missing_arguments_are_named(tmp_path, capsys, argv, flags):
    out = tmp_path / "x.json"
    assert main(["construct", *argv, "-o", str(out)]) == 64
    assert f"needs {flags}\n" in capsys.readouterr().err
    assert not out.exists()


def test_construct_recipe_type_error_surfaces(tmp_path, monkeypatch):
    def broken(m, k, budget):
        raise TypeError("bug inside the recipe")

    monkeypatch.setattr("nosol.cli.geometric_digits", broken)
    with pytest.raises(TypeError, match="bug inside the recipe"):
        main(["construct", "geometric", "--m", "2", "--k", "3",
              "-o", str(tmp_path / "x.json")])


def test_construct_shift(tmp_path, capsys):
    src = tmp_path / "src.json"
    save_certificate(two_var_digits(1, 2), str(src))
    out = tmp_path / "shifted.json"
    code, report = run(capsys, "construct", "shift", "--cert", str(src),
                       "--i", "1,0", "--j", "0,1", "-o", str(out))
    assert code == 0
    cert = load_certificate(str(out))
    assert cert.digit_set.base == 8


def test_construct_shift_checks_its_source_under_the_budget(tmp_path, capsys,
                                                          monkeypatch):
    src = tmp_path / "src.json"
    save_certificate(two_var_digits(1, 2), str(src))
    budgets = []

    def spy(q, *args, **kwargs):
        budgets.append(q.budget)
        return check(q, *args, **kwargs)

    check = oracle.exhaustive_check
    monkeypatch.setattr(oracle, "exhaustive_check", spy)
    monkeypatch.setattr(constructions, "exhaustive_check", spy)
    argv = ["construct", "shift", "--cert", str(src), "--i", "1,0",
            "--j", "0,1", "-o", str(tmp_path / "out.json")]
    code, _ = run(capsys, *argv, "--budget", "500")
    assert code == 0
    assert budgets and max(budgets) <= 500
    # a budget the source's check cannot finish
    os.remove(tmp_path / "out.json")
    os.remove(tmp_path / "out.json.manifest.json")
    code, report = run(capsys, *argv, "--budget", "2")
    assert (code, report["status"]) == (2, "budget-exhausted")
    assert sorted(os.listdir(tmp_path)) == ["src.json"]


# one argv per construct recipe; the first four alphabets were once
# certified without an oracle run
RECIPE_SAMPLES = {
    "geometric": ["--m", "500", "--k", "2"],
    "two-var": ["--a", "1", "--b", "211"],
    "coprime-power": ["--a", "3", "--b", "401", "--k", "2"],
    "spaced": ["--gens", "1,1000", "--s-factor", "401"],
    "thm3": ["--a", "10", "--b", "11", "--c", "31", "--alpha", "0.3",
             "--alpha2", "0.03"],
    "section5": ["--d", "5"],
    "distinct-var": ["--m", "5"],
    "shift": ["--cert", "SOURCE", "--i", "1,0", "--j", "0,1"],
}


@pytest.mark.parametrize("recipe", list(cli.RECIPES))
def test_every_recipe_certifies_by_oracle(tmp_path, capsys, recipe):
    source = tmp_path / "source.json"
    save_certificate(two_var_digits(1, 2), str(source))
    argv = [str(source) if a == "SOURCE" else a for a in RECIPE_SAMPLES[recipe]]
    out = tmp_path / "out.json"
    code, _ = run(capsys, "construct", recipe, *argv, "-o", str(out))
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verified"] and cert["oracle_nodes"] > 0


def test_construct_past_the_budget_writes_nothing(tmp_path, capsys):
    out = tmp_path / "geom.json"
    code, report = run(capsys, "construct", "geometric", "--m", "60",
                       "--k", "4", "--budget", "1000", "-o", str(out))
    assert (code, report["status"]) == (2, "budget-exhausted")
    assert not out.exists()
    assert not (tmp_path / "geom.json.manifest.json").exists()


def test_verify_takes_the_scan_witness_past_the_mitm_cap(tmp_path, capsys,
                                                       monkeypatch):
    """A mixed-radix lift of 140 elements, {0..4} at base 177 under
    {0..6} at base 370 under a top digit in {0..3}: its mitm table, 140**3
    entries, is past MITM_TABLE_CAP, and the sum scan's repeat is the
    witness, at the scan's nodes."""
    values = sorted(a + 177 * (b + 370 * c) for a in range(5)
                    for b in range(7) for c in range(4))
    path = tmp_path / "mixed.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    code, report = run(capsys, "verify", "--sym", "43,69,70",
                       "--set-file", str(path))
    assert code == 1
    assert report == {"status": "witness", "witness": [4, 177, 178, 0, 0, 4],
                      "nodes": 140 + 140 ** 2 + 140 ** 3, "engine": "scan"}
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    from reference import is_witness, symmetric
    assert is_witness(symmetric((43, 69, 70)), values, report["witness"],
                      False)


def test_search_tiny_grid(tmp_path, capsys):
    out = tmp_path / "best.json"
    code, report = run(capsys, "search", "--sym", "1,2", "--L", "4",
                       "-o", str(out))
    assert code == 0
    assert report["table"][0]["exhausted"]
    assert report["table"][0]["digits"] == [0, 1]
    cert = load_certificate(str(out))
    assert cert.digit_set.digits == (0, 1)
    # no oracle ran: the legality index's answer backs it, at the
    # search's nodes
    raw = json.loads(out.read_text())
    assert (raw["verified"], raw["oracle_nodes"]) == (True, 0)
    assert raw["meta"]["proof"] == "legality-index"
    assert raw["meta"]["search_nodes"] == report["table"][0]["nodes"]


def test_search_grid_searches_a_repeated_base_once(tmp_path, capsys,
                                                   monkeypatch):
    budgets = []

    def spy(eq, L, cfg, distinct=False):
        budgets.append((L, cfg.budget))
        return max_digit_set(eq, L, cfg, distinct=distinct)

    monkeypatch.setattr(cli, "max_digit_set", spy)
    code, report = run(capsys, "search", "--sym", "1,2", "--L-grid", "7,13,7",
                       "--budget", "1000", "-o", str(tmp_path / "b.json"))
    assert code == 0
    assert [row["L"] for row in report["table"]] == [7, 13]
    assert budgets == [(7, 500), (13, 500)]


def test_search_progress_stream(tmp_path, capsys):
    code = main(["search", "--sym", "1,2", "--L", "40", "--progress",
                 "-o", str(tmp_path / "b.json")])
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code in (0, 3)
    assert any("best_size" in line for line in lines)
    assert "table" in lines[-1]


def test_search_exact_2231(tmp_path, capsys):
    code, report = run(capsys, "search", "--eq", "2,2,-3,-1", "--L", "40",
                       "--exact", "-o", str(tmp_path / "b.json"))
    assert code == 0
    row = report["table"][0]
    assert row["exhausted"]
    assert row["size"] == 4


def _seeded_dissociated_triples(seed, count):
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        gens = sorted(rng.sample(range(1, 31), 3))
        if is_dissociated(gens):
            triples.append(gens)
    return triples


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("gens", [[43, 69, 70]]
                         + _seeded_dissociated_triples(20261020, 2))
def test_search_grid_memory_leaves_every_row_alone(tmp_path, capsys,
                                                   monkeypatch, gens,
                                                   distinct):
    """The bases of the auto grid share one conflict memory, and each row
    still has the digits, best-rate digits and exhausted flag of a
    standalone search of its base at the same budget, with a fresh
    memory."""
    calls = []

    def recorded(eq, L, cfg=None, distinct=False):
        result = max_digit_set(eq, L, cfg, distinct)
        calls.append((L, cfg, result))
        return result

    monkeypatch.setattr(cli, "max_digit_set", recorded)
    code, report = run(capsys, "search", "--sym", ",".join(map(str, gens)),
                       *(["--distinct"] if distinct else []),
                       "-o", str(tmp_path / "b.json"))
    assert code == 0
    assert len({id(cfg.memory) for _, cfg, _ in calls}) == 1
    assert calls[0][1].memory.conflicts
    eq = make_symmetric(gens)
    for (L, cfg, result), row in zip(calls, report["table"], strict=True):
        alone = max_digit_set(eq, L, SearchConfig(budget=cfg.budget),
                              distinct=distinct)
        assert (alone.digits, alone.best_rate_digits, alone.exhausted) == (
            result.digits, result.best_rate_digits, result.exhausted), L
        assert (row["digits"], row["exhausted"]) == (list(alone.digits),
                                                     alone.exhausted)


def test_sweep_cli(capsys):
    code, report = run(capsys, "sweep", "--k", "2", "--C", "100", "--eps", "0.3")
    assert code == 0
    assert report["bound_ok"] is True
    assert report["bad"] == 100


def test_alpha_cli(capsys):
    code, report = run(capsys, "alpha", "--beta", "1.01", "--q", "0.499")
    assert code == 0
    assert abs(report["one_over_rate"] - 4.77) < 0.005
    code, report = run(capsys, "alpha", "--beta", "1")
    assert abs(report["one_over_rate"] - 4.74) < 0.005


@pytest.mark.parametrize("beta", ["0", "nan", "inf"])
def test_alpha_cli_rejects_a_beta_that_is_not_positive_and_finite(capsys,
                                                                  beta):
    assert main(["alpha", "--beta", beta]) == 64
    assert capsys.readouterr().err == (
        f"error: beta must be a positive finite number, got {float(beta)}\n")


def test_rate_cli(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_certificate(two_var_digits(5, 6), str(path))
    code, report = run(capsys, "rate", "--cert", str(path))
    assert code == 0
    assert 0.445 < report["rate_decimal"] < 0.446


def test_rate_cli_on_a_search_certificate(tmp_path, capsys):
    # a search certificate records no analytic bound
    path = tmp_path / "s.json"
    code, _ = run(capsys, "search", "--sym", "1,2", "--L", "40", "-o", str(path))
    assert code == 0
    code, report = run(capsys, "rate", "--cert", str(path))
    assert code == 0
    assert (report["kind"], report["analytic_bound"], report["binding"]) == (
        "search", None, "exact-rate")
    assert report["rate"] == json.loads(path.read_text())["rate"]


def test_tampered_certificate_is_not_trusted(tmp_path, capsys):
    # 1 + 2*1 = 3 + 2*0 solves sym(1,2) in {0,1,2,3}; base 10 is legal
    eq = make_symmetric([1, 2])
    path = tmp_path / "tampered.json"
    save_certificate(Certificate(make_digit_set(10, [0, 1, 2, 3], eq),
                                 verified=True), str(path))
    assert json.loads(path.read_text())["verified"] is True
    assert not load_certificate(str(path)).verified
    assert main(["rate", "--cert", str(path)]) == 64
    assert "unverified" in capsys.readouterr().err
    with pytest.raises(ValueError):
        lift(load_certificate(str(path)), 1000)


def test_env_budget_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NOSOL_BUDGET", "10")
    code, report = run(capsys, "verify", "--sym", "1,1",
                       "--set", ",".join(str(i) for i in range(1, 40)))
    assert code == 2


def test_python_m_nosol_exits_with_main(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "NOSOL_BUDGET"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(nosol.__file__))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "nosol", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    version = run_module("--version")
    assert (version.returncode, version.stdout) == (0, nosol.__version__ + "\n")
    witness = run_module("verify", "--sym", "1,1", "--set", "1,2,3,4")
    assert witness.returncode == 1
    assert json.loads(witness.stdout) == {"nodes": 24, "status": "witness",
                                          "witness": [2, 2, 1, 3],
                                          "engine": "mitm"}
    usage = run_module("search", "--sym", "1,2", "--L", "1")
    assert (usage.returncode, usage.stdout) == (64, "")
    assert usage.stderr == "error: base must be at least 2, got 1\n"
    assert os.listdir(tmp_path) == []


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 64


def test_env_budget_malformed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NOSOL_BUDGET", "abc")
    assert main(["verify", "--sym", "1,2", "--set", "0,1"]) == 64
    assert "NOSOL_BUDGET" in capsys.readouterr().err


# bad input, each case of which once escaped main() as a traceback, ran
# anyway, or wrote files before failing; ARRAY, NO_BASE and COERCED name
# files holding a JSON array, a certificate without its base and one whose
# base is a fraction and whose digits are a string, ALL a clean all-mode
# certificate, and SET the set 0..3, where 0 + 3 = 1 + 2
BAD_INPUT = [
    (["search", "--sym", "1,2", "--L", "1"], {}, 64),
    (["search", "--sym", "1,2", "--L-grid", "1,0"], {}, 64),
    (["verify", "--sym", "1,1"], {}, 64),
    (["construct", "shift", "--cert", "NO_BASE", "--i", "1,0", "--j", "0,1"],
     {}, 65),
    (["verify", "--cert", "ARRAY"], {}, 64),
    (["rate", "--cert", "ARRAY"], {}, 64),
    (["construct", "shift", "--cert", "ARRAY", "--i", "1,0", "--j", "0,1"],
     {}, 65),
    (["verify", "--sym", "1,2", "--set", "0,1", "--budget", "0"], {}, 64),
    (["search", "--sym", "1,2", "--L", "4", "--budget", "-4"], {}, 64),
    (["sweep", "--k", "2", "--C", "10", "--eps", "0.3", "--samples", "-3"],
     {}, 64),
    (["construct", "geometric", "--m", "2", "--k", "3", "--N", "0"], {}, 64),
    (["construct", "geometric", "--m", "2", "--k", "3", "--N", "-5"], {}, 64),
    (["search", "--sym", "1,2", "--L", "4"], {"NOSOL_BUDGET": "0"}, 64),
    (["alpha", "--beta", "1e200"], {}, 64),
    (["construct", "thm3", "--a", "10", "--b", "11", "--c", "31",
      "--alpha", "1000"], {}, 65),
    (["construct", "thm3", "--a", "10", "--b", "11", "--c", "31",
      "--alpha", "0.3", "--alpha2", "-1000"], {}, 65),
    (["verify", "--cert", "COERCED"], {}, 64),
    (["rate", "--cert", "COERCED"], {}, 64),
    (["construct", "shift", "--cert", "COERCED", "--i", "1,0", "--j", "0,1"],
     {}, 65),
    # --L once overrode --L-grid, and --extended was ignored beside either
    (["search", "--sym", "1,2", "--L-grid", "7", "--L", "9"], {}, 64),
    (["search", "--sym", "1,2", "--L", "9", "--extended"], {}, 64),
    (["search", "--sym", "1,2", "--L-grid", "7,9", "--extended"], {}, 64),
    # verify --cert once ignored an equation or set given beside it
    (["verify", "--cert", "ARRAY", "--sym", "5,7", "--set", "0,1,2,3,4,5,6"],
     {}, 64),
    (["verify", "--cert", "ARRAY", "--eq", "1,-1", "--set-file", "ARRAY"],
     {}, 64),
    # and checked an all-mode certificate in the weaker distinct mode
    (["verify", "--cert", "ALL", "--distinct"], {}, 64),
    # construct once took, and recorded, options its recipe does not read
    (["construct", "geometric", "--m", "2", "--k", "3", "--a", "7",
      "--alpha", "0.5", "--i", "1,2"], {}, 64),
    (["construct", "two-var", "--a", "1", "--b", "2", "--literal-constants"],
     {}, 64),
    (["construct", "thm3", "--a", "10", "--b", "11", "--c", "31",
      "--alpha", "0.3", "--m", "3"], {}, 64),
    # and wrote a certificate, with set_out in its manifest, but no set
    (["construct", "geometric", "--m", "2", "--k", "3", "--set-out",
      "lifted.txt"], {}, 64),
    # an unwritable output once exited 65 in construct, 64 in search, and
    # a failed set write left the certificate and its manifest behind
    (["construct", "geometric", "--m", "2", "--k", "3", "--N", "64",
      "-o", "g.json", "--set-out", "MISSING/g.set"], {}, 64),
    (["construct", "two-var", "--a", "5", "--b", "6", "-o", "MISSING/x.json"],
     {}, 64),
    (["search", "--sym", "1,2", "--L", "7", "-o", "MISSING/s.json"], {}, 64),
    # a non-integer in construct's lists once exited 65, not 64
    (["construct", "spaced", "--gens", "1,x", "--s-factor", "2"], {}, 64),
    (["construct", "shift", "--cert", "ALL", "--i", "1,x", "--j", "0,1"],
     {}, 64),
    # --sym once won over --eq, and --set over --set-file, unannounced
    (["verify", "--sym", "1,2", "--eq", "1,1,-1,-1", "--set", "0,1"], {}, 64),
    (["search", "--sym", "1,2", "--eq", "1,-1", "--L", "9"], {}, 64),
    (["verify", "--eq", "1,1,-1,-1", "--set", "0,1", "--set-file", "SET"],
     {}, 64),
    # an explicit --L-grid auto chooses the grid too
    (["search", "--sym", "1,2", "--L-grid", "auto", "--L", "9"], {}, 64),
    # a certificate whose equation is not an object once raised
    # AttributeError
    (["verify", "--cert", "EQUATION"], {}, 64),
    (["rate", "--cert", "EQUATION"], {}, 64),
    (["construct", "shift", "--cert", "EQUATION", "--i", "1,0", "--j", "0,1"],
     {}, 65),
    # recipe, sweep and certificate checks that no other test reaches
    (["construct", "geometric", "--m", "1", "--k", "2"], {}, 65),
    (["construct", "geometric", "--m", "10", "--k", "13"], {}, 65),
    (["construct", "coprime-power", "--a", "50", "--b", "7", "--k", "2"],
     {}, 65),
    (["construct", "spaced", "--gens", "1,2", "--s-factor", "1"], {}, 65),
    (["construct", "section5", "--d", "0"], {}, 65),
    (["construct", "distinct-var", "--m", "2"], {}, 65),
    (["sweep", "--k", "1", "--C", "10", "--eps", "0.3"], {}, 64),
    (["verify", "--cert", "BASE_1"], {}, 64),
    (["verify", "--cert", "WRONG_GEN"], {}, 64),
]


# once read as base 7 with digits (0, 1, 3), a clean 3AP-free alphabet
COERCED = {"schema": 1, "equation": {"coeffs": ["2", "-1", "-1"]},
           "base": 7.9, "digits": "013", "verified": True, "mode": "all"}


@pytest.mark.parametrize("argv,env,code", BAD_INPUT,
                         ids=[" ".join([*argv, *(f"{k}={v}" for k, v in env.items())])
                              for argv, env, _ in BAD_INPUT])
def test_bad_input_gets_its_exit_code(tmp_path, capsys, monkeypatch,
                                      argv, env, code):
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "ARRAY").write_text("[]\n")
    no_base = two_var_digits(1, 2).to_json()
    del no_base["base"]
    (tmp_path / "NO_BASE").write_text(json.dumps(no_base))
    (tmp_path / "COERCED").write_text(json.dumps(COERCED))
    save_certificate(two_var_digits(1, 2), str(tmp_path / "ALL"))
    (tmp_path / "SET").write_text("0\n1\n2\n3\n")
    # two_var_digits(1, 2) with its base, its equation or its generators
    # spoiled
    clean = two_var_digits(1, 2).to_json()
    spoiled = {"BASE_1": {"base": 1},
               "EQUATION": {"equation": "2,-2,1,-1"},
               "WRONG_GEN": {"equation": {"coeffs": clean["equation"]["coeffs"],
                                          "symmetric_gen": ["1", "3"]}}}
    for name, change in spoiled.items():
        (tmp_path / name).write_text(json.dumps({**clean, **change}))
    files = sorted(os.listdir(tmp_path))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == files


@pytest.mark.parametrize("argv,flags", [
    (["--sym", "5,7", "--set", "0,1,2,3,4,5,6"], "--sym, --set"),
    (["--eq", "1,-1"], "--eq"),
    (["--set-file", "SET"], "--set-file"),
])
def test_verify_cert_refuses_an_equation_or_a_set(tmp_path, capsys, argv,
                                                 flags):
    # the check would run on the certificate alone, not on what was given
    cert_path = tmp_path / "geometric.cert.json"
    save_certificate(geometric_digits(2, 3), str(cert_path))
    (tmp_path / "SET").write_text("0\n1\n2\n")
    argv = [str(tmp_path / a) if a == "SET" else a for a in argv]
    assert main(["verify", "--cert", str(cert_path), *argv]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --cert cannot be combined with {flags}\n"


@pytest.mark.parametrize("argv,flags", [
    (["geometric", "--m", "2", "--k", "3", "--a", "7", "--alpha", "0.5",
      "--i", "1,2"], "--a, --i, --alpha"),
    (["distinct-var", "--m", "3", "--k", "2", "--literal-constants"],
     "--k, --literal-constants"),
])
def test_construct_refuses_options_its_recipe_does_not_read(tmp_path, capsys,
                                                           argv, flags):
    out = tmp_path / "x.json"
    assert main(["construct", *argv, "-o", str(out)]) == 64
    assert f"does not read {flags}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,code", [
    # the lift is too large to re-verify in distinct mode
    (["distinct-var", "--m", "3", "--N", "793714773254144"], 65),
    # the certificate fits the budget, the lift's re-verification does not
    (["distinct-var", "--m", "3", "--N", "4000", "--budget", "3000"], 2),
    # the lift holds 4**22 elements, too many to materialise
    (["two-var", "--a", "1", "--b", "2", "--N", "17592186044416"], 65),
])
def test_construct_failing_lift_writes_nothing(tmp_path, capsys, argv, code):
    out = tmp_path / "d.json"
    assert main(["construct", *argv, "-o", str(out)]) == code
    assert os.listdir(tmp_path) == []


def test_construct_thm3_unverified_plan_writes_nothing(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "thm3", "--a", "10", "--b", "11", "--c", "31",
                 "--alpha", "0.3", "--alpha2", "0.03", "--budget", "1"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        '{"case": "small-dependency", "plan": {"digits": [0, 1, 4, 5]}, '
        '"status": "unverified-plan"}']
    assert os.listdir(tmp_path) == []


def test_search_checks_every_base_before_searching(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a base was searched")

    monkeypatch.setattr(cli, "max_digit_set", never)
    assert main(["search", "--sym", "43,69,70", "--L-grid", "93185,1"]) == 64
    assert "got 1" in capsys.readouterr().err


def test_sweep_cli_exact_power(capsys):
    # 8**10 == 1024**3, so B = 8, where floats gave 7
    code, report = run(capsys, "sweep", "--k", "2", "--C", "1024", "--eps", "0.2")
    assert (code, report["b"]) == (0, 8)


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_sweep_nonfinite_eps_is_usage_error(capsys, eps):
    # -inf once escaped main() as an OverflowError
    assert main(["sweep", "--k", "2", "--C", "10", f"--eps={eps}"]) == 64
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("C,code", [
    # the counting bound overflows a float
    pytest.param(10 ** 400, 64, id="C=10**400"),
    # B = 10**20 is over the budget before the first sample's scan starts
    pytest.param(10 ** 100, 2, id="C=10**100"),
])
def test_sweep_huge_c_gets_its_exit_code(capsys, C, code):
    assert main(["sweep", "--k", "2", "--C", str(C), "--eps", "0.3",
                 "--samples", "1"]) == code
    out, err = capsys.readouterr()
    if code == 64:
        assert (out, err.count("error:")) == ("", 1)
    else:
        assert json.loads(out) == {"status": "budget-exhausted",
                                   "nodes": 10 ** 20}


@pytest.mark.parametrize("C,B", [(10 ** 40, 10 ** 8), (10 ** 100, 10 ** 20)])
def test_sweep_b_past_the_scan_cap_is_usage_error(capsys, C, B):
    # B fits the budget but its scan's first stage, B sums, does not fit
    # SCAN_SUMS_CAP; 10**8 once ran out of memory and 10**20, past
    # sys.maxsize, ended in an OverflowError traceback
    assert main(["sweep", "--k", "2", "--C", str(C), "--eps", "0.3",
                 "--samples", "1", "--budget", str(10 ** 30)]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: B = {B} ")


@pytest.mark.parametrize("argv,env,code", [
    ([], {}, 0),
    (["--budget", "1"], {}, 2),
    ([], {"NOSOL_BUDGET": "1"}, 2),
])
def test_rate_checks_its_certificate_under_the_budget(
        tmp_path, capsys, monkeypatch, argv, env, code):
    # rate once checked under the default budget whatever it was given
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = tmp_path / "c.json"
    save_certificate(two_var_digits(5, 6), str(path))
    assert main(["rate", "--cert", str(path), *argv]) == code
    report = json.loads(capsys.readouterr().out)
    if code == 2:
        assert report == {"status": "budget-exhausted", "nodes": 2}
    else:
        assert 0.445 < report["rate_decimal"] < 0.446


@pytest.mark.parametrize("argv", [
    ["two-var", "--a", "1", "--b", "2000"],
    ["distinct-var", "--m", "3000"],
    ["spaced", "--gens", "1,5000", "--s-factor", "2000"],
    ["coprime-power", "--a", "1", "--b", "2000", "--k", "2"],
    # once ran for minutes building the alphabet
    ["two-var", "--a", "1", "--b", "100000000000"],
])
def test_interval_past_the_budget_is_never_built(tmp_path, capsys,
                                                 monkeypatch, argv):
    # every engine spends a node per element, so these exhaust the budget
    # with the nodes an oracle run would report
    def never(*args, **kwargs):
        raise AssertionError("the alphabet was built")

    monkeypatch.setattr(constructions, "make_digit_set", never)
    monkeypatch.chdir(tmp_path)
    assert main(["construct", *argv, "--budget", "1000"]) == 2
    assert capsys.readouterr().out == (
        '{"nodes": 1001, "status": "budget-exhausted"}\n')
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    # these two once ended in an OverflowError: the candidate range has
    # more than sys.maxsize values
    ["--sym", "43,69,70", "--L", str(10 ** 30), "--budget", "1000"],
    ["--sym", "43,69,70", "--exact", "--L", str(10 ** 30), "--budget", "1000"],
    # once a RecursionError: the exact search is 2,500 candidates deep
    ["--sym", "1,1", "--exact", "--L", "5000", "--budget", "200000"],
])
def test_search_over_a_huge_range_runs_out_of_budget(tmp_path, capsys, argv):
    code, report = run(capsys, "search", *argv, "-o", str(tmp_path / "b.json"))
    assert code == 3
    assert not report["table"][0]["exhausted"]


def test_exact_search_past_the_hypergraph_limit_runs_on_the_index(
        tmp_path, capsys, monkeypatch):
    # an enumeration of the whole range would leave no set when the budget
    # runs out, and over 10**30 candidates would never end
    def never(*args, **kwargs):
        raise AssertionError("the candidate range was enumerated")

    monkeypatch.setattr(search, "_mitm_pairs", never)
    # the patch is live: a small range that pays is listed through it
    with pytest.raises(AssertionError, match="enumerated"):
        main(["search", "--sym", "43,69,70", "--exact", "--L", "2961",
              "-o", str(tmp_path / "a.json")])
    capsys.readouterr()
    code, report = run(capsys, "search", "--sym", "1,1", "--exact", "--L",
                       "5000", "--budget", "200000", "-o", str(tmp_path / "b.json"))
    assert code == 3
    assert report["table"][0]["digits"] == [
        0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122, 147, 181, 203, 251, 289,
        360, 400, 474, 564, 592, 661, 774, 821, 915, 969, 1015, 1158, 1311,
        1394, 1522, 1571, 1820, 1895, 2028, 2258, 2330, 2492]
    assert report["table"][0]["nodes"] == 200026
    code, report = run(capsys, "search", "--sym", "43,69,70", "--exact", "--L",
                       str(10 ** 30), "--budget", "1000",
                       "-o", str(tmp_path / "c.json"))
    assert code == 3


def test_construct_thm3_with_a_far_dependency_stays_in_budget(tmp_path,
                                                               capsys,
                                                               monkeypatch):
    # the dependency search once scanned every level up to b**alpha, about
    # 3e5 here, whatever the budget; the relation found has magnitude 592
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "thm3", "--a", "999983", "--b", "1299709",
                 "--c", "1999993", "--alpha", "0.9", "--budget", "1000"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "unverified-plan"
    assert os.listdir(tmp_path) == []


def test_construct_thm3_greedy_step_is_capped_whatever_the_budget(
        tmp_path, capsys, monkeypatch):
    # the greedy step stores up to a sum per node, so its nodes are capped
    # to bound its memory; past the cap the plan is left unverified
    monkeypatch.chdir(tmp_path)
    argv = ["construct", "thm3", "--a", "10", "--b", "11", "--c", "31",
            "--alpha", "0.3", "--alpha2", "0.03"]
    monkeypatch.setattr(constructions, "MITM_TABLE_CAP", 10)
    assert main(argv) == 2
    assert capsys.readouterr().out.splitlines() == [
        '{"case": "small-dependency", "plan": {"digits": [0, 1, 4, 5]}, '
        '"status": "unverified-plan"}']
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(constructions, "MITM_TABLE_CAP", oracle.MITM_TABLE_CAP)
    assert main(argv) == 0
