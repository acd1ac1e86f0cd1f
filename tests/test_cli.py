import json
import os

import pytest

from nosol import cli, constructions, oracle
from nosol.cli import main
from nosol.certificates import Certificate, load_certificate, make_digit_set
from nosol.constructions import lift, two_var_digits
from nosol.certificates import save_certificate
from nosol.equations import make_symmetric


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


@pytest.mark.parametrize("recipe", list(cli.RECIPE_ARGS))
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


def test_search_tiny_grid(tmp_path, capsys):
    out = tmp_path / "best.json"
    code, report = run(capsys, "search", "--sym", "1,2", "--L", "4",
                       "-o", str(out))
    assert code == 0
    assert report["table"][0]["exhausted"]
    assert report["table"][0]["digits"] == [0, 1]
    cert = load_certificate(str(out))
    assert cert.digit_set.digits == (0, 1)


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


def test_rate_cli(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_certificate(two_var_digits(5, 6), str(path))
    code, report = run(capsys, "rate", "--cert", str(path))
    assert code == 0
    assert 0.445 < report["rate_decimal"] < 0.446


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


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 64


def test_env_budget_malformed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NOSOL_BUDGET", "abc")
    assert main(["verify", "--sym", "1,2", "--set", "0,1"]) == 64
    assert "NOSOL_BUDGET" in capsys.readouterr().err


# bad input, each case of which once escaped main() as a traceback, ran
# anyway, or wrote files before failing; ARRAY and NO_BASE name files
# holding a JSON array and a certificate without its base
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
]


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
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["ARRAY", "NO_BASE"]


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
