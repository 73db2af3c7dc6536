import json
import math
from fractions import Fraction

import pytest

from apexp.circmath import circle_dist
from apexp.cli import main, parse_real_token
from apexp.exponents import GAP_MIN
from apexp.groups import FinGenSubgroup, build_b_sequence
from apexp.realfield import SymbolBasis
from apexp.scenarios import SCENARIOS, run_scenario
from apexp.solenoid import SolenoidSystem


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_real_token():
    assert parse_real_token("sqrt2/2") == ("sqrt2/2",
                                           pytest.approx(math.sqrt(2) / 2))
    assert parse_real_token("pi")[1] == pytest.approx(math.pi)
    assert parse_real_token("3/4") == (None, 0.75)
    assert parse_real_token("0.25") == (None, 0.25)


@pytest.mark.parametrize("token", ["sqrt2/0", "1/0", "pi/0.0", "3/-0"])
def test_parse_real_token_zero_denominator(token):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_real_token(token)


def test_lab_list(capsys):
    assert main(["lab", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "spiral", "denjoy-suspension", "dyadic-solenoid"):
        assert name in out


def test_lab_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["lab", "run", "dyadic-solenoid", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[PASS]" in captured.err and "[FAIL]" not in captured.err
    report = json.loads(out.read_text())
    assert report["scenario"] == "dyadic-solenoid" and report["passed"]


def test_lab_run_params_override(tmp_path):
    params = write(tmp_path, "params.json", {"n_grid": 100})
    out = tmp_path / "report.json"
    assert main(["lab", "run", "dyadic-solenoid", "--params", params,
                 "--out", str(out)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["params"]["n_grid"] == 100


def test_lab_run_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lab", "run", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "argument scenario: invalid choice: 'nosuch'" in err
    assert all(repr(name) in err for name in SCENARIOS)


def test_bseq_build(tmp_path, capsys):
    basis = SymbolBasis([("1", 1.0)])
    spec = {"basis": basis.to_json(),
            "B": [basis.symbol("1").to_json()],
            "elements": [basis.zero().to_json(),
                         basis.vector({"1": "1/2"}).to_json(),
                         basis.vector({"1": "1/6"}).to_json()]}
    out = tmp_path / "seq.json"
    assert main(["bseq", "build", "--in", write(tmp_path, "in.json", spec),
                 "--out", str(out)]) == 0
    seq = json.loads(out.read_text())
    assert [s["matrix"] for s in seq["stages"]] == [None, [[2]], [[3]]]


def test_group_member(tmp_path, capsys):
    basis = SymbolBasis([("1", 1.0)])
    g = FinGenSubgroup(basis, [basis.vector({"1": "1/2"})])
    gpath = write(tmp_path, "g.json", g.to_json())
    assert main(["group", "member", "--group", gpath, "--element",
                 json.dumps(basis.vector({"1": "3/2"}).to_json())]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["group", "member", "--group", gpath, "--element",
                 json.dumps(basis.vector({"1": "1/3"}).to_json())]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_group_equiv(tmp_path, capsys):
    basis = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0))])
    gens = [basis.symbol("1"), basis.symbol("sqrt2")]
    m = FinGenSubgroup(basis, gens)
    n = FinGenSubgroup(basis, [g.scale(Fraction(1, 3)) for g in gens])
    mp = write(tmp_path, "m.json", m.to_json())
    np_ = write(tmp_path, "n.json", n.to_json())
    assert main(["group", "equiv", "--m", mp, "--n", np_]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "EQUIVALENT" and out["scalar"] == "3"

    # irrational scalar with no product table: undecided, exit code 2
    scaled = FinGenSubgroup(basis, [basis.symbol("sqrt2"),
                                    basis.vector({"1": 2})])
    sp = write(tmp_path, "s.json", scaled.to_json())
    assert main(["group", "equiv", "--m", sp, "--n", mp]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "UNDECIDED"


def test_group_equiv_has_no_bound(tmp_path, capsys):
    basis = SymbolBasis([("1", 1.0)])
    gp = write(tmp_path, "g.json",
               FinGenSubgroup(basis, [basis.symbol("1")]).to_json())
    with pytest.raises(SystemExit) as exc:
        main(["group", "equiv", "--m", gp, "--n", gp, "--bound", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 6" in capsys.readouterr().err


def dyadic_system(tmp_path):
    """A depth-3 dyadic solenoid system, written to system.json."""
    basis = SymbolBasis([("1", 1.0)])
    one = basis.symbol("1")
    seq = build_b_sequence([one], [basis.zero(),
                                   one.scale(Fraction(1, 2)),
                                   one.scale(Fraction(1, 4))], basis)
    system = SolenoidSystem.from_bsequence(seq)
    return write(tmp_path, "system.json", system.to_json())


def test_solenoid_flow_csv(tmp_path):
    spath = dyadic_system(tmp_path)
    out = tmp_path / "flow.csv"
    assert main(["solenoid", "flow", "--system", spath, "--t-grid", "0:4:5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,stage,coord0"
    assert len(lines) == 1 + 5 * 3
    # t = 1 row of stage 2 carries the halved coordinate
    row = [l for l in lines if l.startswith("1.000000,2,")][0]
    assert abs(float(row.split(",")[2]) - 0.5) < 1e-9


def test_rotnum(tmp_path, capsys):
    lift = write(tmp_path, "lift.json", {"kind": "rotation", "theta": 0.25})
    assert main(["rotnum", "--lift", lift, "--n", "1000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["estimate"] == pytest.approx(0.25, abs=1e-12)
    assert out["error_bound"] == pytest.approx(2e-3)
    assert out["bracket"] == ["1/4", "1/4"]
    assert out["bracket_width"] == 0.0 and out["bracket_stop"] == "margin"


def test_rotnum_bracket_width_follows_n(tmp_path, capsys):
    lift = write(tmp_path, "lift.json",
                 {"kind": "closed_form",
                  "expr": "x + 0.3 + 0.5/(2*pi)*sin(2*pi*x)"})
    assert main(["rotnum", "--lift", lift, "--n", "5000"]) == 0
    out = json.loads(capsys.readouterr().out)
    lo, hi = (Fraction(v) for v in out["bracket"])
    assert out["bracket_stop"] == "width"
    assert out["bracket_width"] == float(hi - lo) <= out["error_bound"]
    assert lo - Fraction(out["error_bound"]) <= Fraction(out["estimate"]) \
        <= hi + Fraction(out["error_bound"])


def test_denjoy_build(tmp_path, capsys):
    out = tmp_path / "denjoy.json"
    assert main(["denjoy", "build", "--theta", "sqrt2/2", "--lambda", "1/2",
                 "-N", "40", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["theta"] == pytest.approx(math.sqrt(2) / 2)
    assert float(d["tail_bound"]) < 1e-6
    assert abs(d["rotation_number_estimate"] - math.sqrt(2) / 2) \
        <= d["rotation_number_bound"]
    lo, hi = (Fraction(v) for v in d["rotation_number_bracket"])
    assert lo <= math.sqrt(2) / 2 <= hi
    assert d["rotation_number_bracket_width"] == float(hi - lo) \
        <= d["rotation_number_bound"]
    assert d["rotation_number_bracket_stop"] == "width"


def test_denjoy_build_rejects_rational_theta(capsys):
    assert main(["denjoy", "build", "--theta", "1/3"]) == 1
    assert "named irrational" in capsys.readouterr().err


def test_suspend_orbit_csv(tmp_path):
    lift = write(tmp_path, "lift.json", {"kind": "rotation", "theta": 0.25})
    out = tmp_path / "orbit.csv"
    assert main(["suspend", "orbit", "--lift", lift, "--t-grid", "0:2:3",
                 "--x", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,s,x"
    t, s, x = (float(v) for v in lines[-1].split(","))
    assert (t, s, x) == (2.0, 0.0, (0.5 + 2 * 0.25) % 1.0)


def t_grid_command(tmp_path, command):
    """The arguments of `solenoid flow` or `suspend orbit` before --t-grid."""
    if command == "solenoid":
        return ["solenoid", "flow", "--system", dyadic_system(tmp_path)]
    lift = write(tmp_path, "lift.json", {"kind": "rotation", "theta": 0.25})
    return ["suspend", "orbit", "--lift", lift]


@pytest.mark.parametrize("command", ["solenoid", "suspend"])
@pytest.mark.parametrize("grid", ["0:1", "0:1:x", "0:1:2:3", "a:1:3",
                                  "0:1:-2", "0:1:2.5"])
def test_malformed_t_grid_is_a_usage_error(tmp_path, capsys, command, grid):
    with pytest.raises(SystemExit) as exc:
        main(t_grid_command(tmp_path, command) + ["--t-grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument --t-grid: expected a:b:n with a whole n >= 0, got {grid!r}" \
        in err


@pytest.mark.parametrize("command", ["solenoid", "suspend"])
def test_negative_t_grid_start(tmp_path, capsys, command):
    argv = t_grid_command(tmp_path, command)
    out = tmp_path / "grid.csv"
    assert main(argv + ["--t-grid=-50:500:3", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert sorted({float(r.split(",")[0]) for r in rows}) == [-50.0, 225.0, 500.0]
    # written apart, argparse reads the negative start as an option
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--t-grid", "-50:500:3"])
    assert exc.value.code == 2
    assert "argument --t-grid: expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(argv[:2] + ["--help"])
    assert exc.value.code == 0
    assert "--t-grid=-50:500:1001" in capsys.readouterr().out


def test_exponents_probe(tmp_path, capsys):
    orbit = write(tmp_path, "orbit.json", {"kind": "example1"})
    cands = write(tmp_path, "cands.json", [1, 2])
    report = tmp_path / "report.json"
    assert main(["exponents", "probe", "--orbit", orbit, "--candidates",
                 cands, "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    assert [r["verdict"] for r in out] == ["ACCEPTED", "ACCEPTED"]


def test_exponents_probe_shows_rejection_evidence(tmp_path):
    # 1/2 is rejected on the denjoy suspension by a return sequence whose
    # trace splits into two clusters; the report carries that evidence
    spec = {"kind": "denjoy-suspension", "theta": math.sqrt(2) / 2}
    report = tmp_path / "report.json"
    assert main(["exponents", "probe",
                 "--orbit", write(tmp_path, "orbit.json", spec),
                 "--candidates", write(tmp_path, "cands.json", [1, "1/2"]),
                 "--report", str(report)]) == 0
    accepted, rejected = json.loads(report.read_text())
    assert accepted["verdict"] == "ACCEPTED"
    assert not any(key.startswith("rejection_") for key in accepted)
    assert rejected["verdict"] == "REJECTED"
    times = rejected["rejection_times"]
    assert isinstance(times, list) and len(times) >= 4
    c1, c2 = rejected["rejection_clusters"]
    assert rejected["rejection_gap"] == pytest.approx(circle_dist(c1, c2))
    assert rejected["rejection_gap"] >= GAP_MIN
    assert 0.0 <= rejected["rejection_orbit_spread"] < 1e-3
    # the times reproduce the oscillating trace of 1/2
    trace = [(0.5 * t) % 1.0 for t in times[-10:]]
    assert all(min(circle_dist(y, c1), circle_dist(y, c2)) < 0.1 for y in trace)


@pytest.mark.parametrize("spec,cands,expectations", [
    ({"kind": "spiral", "alpha": math.sqrt(2), "beta": math.sqrt(3)},
     ["sqrt2"], ["forward probe accepts alpha"]),
    ({"kind": "denjoy-suspension", "theta": math.sqrt(2) / 2},
     [1, "sqrt2/2"], ["member 1 accepted", "member theta accepted"]),
])
def test_exponents_probe_matches_scenario(tmp_path, spec, cands, expectations):
    # the CLI builds the orbit and sequences with the scenario's builder,
    # so its verdicts are the scenario's
    report = tmp_path / "report.json"
    assert main(["exponents", "probe",
                 "--orbit", write(tmp_path, "orbit.json", spec),
                 "--candidates", write(tmp_path, "cands.json", cands),
                 "--report", str(report)]) == 0
    verdicts = [r["verdict"] for r in json.loads(report.read_text())]
    measured = {e.name: e.measured
                for e in run_scenario(spec["kind"]).expectations}
    assert verdicts == [measured[name] for name in expectations]
    assert verdicts == ["ACCEPTED"] * len(cands)


def test_exponents_probe_unknown_kind(tmp_path, capsys):
    assert main(["exponents", "probe",
                 "--orbit", write(tmp_path, "orbit.json", {"kind": "dyadic-solenoid"}),
                 "--candidates", write(tmp_path, "cands.json", [1])]) == 1
    assert "unknown orbit kind" in capsys.readouterr().err


@pytest.mark.parametrize("spec,missing", [
    ({"kind": "spiral", "beta": math.sqrt(3)}, "alpha"),
    ({"kind": "spiral", "alpha": math.sqrt(2)}, "beta"),
    ({"kind": "denjoy-suspension"}, "theta"),
])
def test_exponents_probe_missing_key(tmp_path, capsys, spec, missing):
    assert main(["exponents", "probe",
                 "--orbit", write(tmp_path, "orbit.json", spec),
                 "--candidates", write(tmp_path, "cands.json", [1])]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: orbit kind {spec['kind']!r} needs {missing!r}")


def test_kronecker_solve(capsys):
    assert main(["kronecker", "solve", "--freqs", "1,sqrt2",
                 "--targets", "1/4,1/2", "--eps", "0.01",
                 "--bound", "100000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(r < 0.01 for r in out["residuals"])


@pytest.mark.parametrize("eps,bound,t", [
    ("1e-4", "2000", 1171.0394932622912),
    ("1e-5", "2e5", 1171.0395452238154),
])
def test_kronecker_solve_two_free_frequencies(capsys, eps, bound, t):
    # no unit frequency, so the grid path runs; these are the bits of a
    # scan of every grid point
    assert main(["kronecker", "solve", "--freqs", "sqrt2,sqrt3",
                 "--targets", "1/10,3/10", "--eps", eps, "--bound", bound]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t"] == t
    assert all(r < float(eps) for r in out["residuals"])


@pytest.mark.parametrize("eps", ["0", "-0.1", "nan", "inf", "x"])
def test_kronecker_bad_eps_is_a_usage_error(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["kronecker", "solve", "--freqs", "sqrt2", "--targets", "1/2",
              f"--eps={eps}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument --eps: expected a positive finite number, got {eps!r}" in err


@pytest.mark.parametrize("bound", ["inf", "-inf", "nan", "x", ""])
def test_kronecker_bad_bound_is_a_usage_error(capsys, bound):
    # inf and nan once reached the scan and failed to become integers
    with pytest.raises(SystemExit) as exc:
        main(["kronecker", "solve", "--freqs", "1,sqrt2", "--targets", "0,1/4",
              "--eps", "0.01", f"--bound={bound}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument --bound: expected a finite number, got {bound!r}" in err


@pytest.mark.parametrize("option,value,expected", [
    ("--freqs", "1,sqrt2/0", "a comma list of finite reals like 1,sqrt2/2"),
    ("--freqs", "1,foo", "a comma list of finite reals like 1,sqrt2/2"),
    ("--freqs", "1,inf", "a comma list of finite reals like 1,sqrt2/2"),
    ("--freqs", "1,", "a comma list of finite reals like 1,sqrt2/2"),
    ("--targets", "0,1/0", "a comma list of rationals like 0,1/4"),
    ("--targets", "0,sqrt2", "a comma list of rationals like 0,1/4"),
    ("--targets", "0,1e400", "a comma list of rationals like 0,1/4"),
])
def test_kronecker_malformed_list_is_a_usage_error(capsys, option, value,
                                                   expected):
    argv = {"--freqs": "1,sqrt2", "--targets": "0,1/4", "--eps": "0.01"}
    argv[option] = value
    with pytest.raises(SystemExit) as exc:
        main(["kronecker", "solve"] + [f"{k}={v}" for k, v in argv.items()])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {option}: expected {expected}, got {value!r}" in err


def test_kronecker_not_found(capsys):
    rc = main(["kronecker", "solve", "--freqs", "1,2",
               "--targets", "0,1/2", "--eps", "0.01", "--bound", "1000"])
    assert rc == 2
    assert capsys.readouterr().out.strip() == "NOT_FOUND"
