"""Command-line interface: envelopes, tables, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest
import scipy.optimize

from pyrastab import cli, periodic, simulate
from pyrastab.benchmarks import get_case
from pyrastab.cli import main
from pyrastab.errors import CrossCheckError
from pyrastab.fields import ExpressionField
from pyrastab.problemio import document_digest


@pytest.fixture()
def case_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(get_case(name).document()))
        return str(path)

    return write


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -----------------------------------------------------------------


def test_analyze_equilibrium_envelope(case_file, capsys):
    path = case_file("scalar-basic")
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 0 and err == ""
    env = json.loads(out)
    assert env["tool"]["name"] == "pyrastab"
    assert env["input"]["digest"] == document_digest(get_case("scalar-basic").document())
    res = env["results"]
    assert res["kind"] == "equilibrium"
    assert res["equilibrium_residual"] == 0.0
    rules = {v["rule"]: v["outcome"] for v in res["verdicts"]}
    assert rules["odd-number"] == "excluded"
    dom = res["spectrum"]["roots"][0]["value"]
    assert dom["re"] == pytest.approx(0.30618565556145744, abs=1e-9)


def test_analyze_reports_the_resonating_center(tmp_path, capsys):
    # J is a rotation with eigenvalues +-i = +-2 pi i / T: a root on the axis
    # that no gain moves, reported as marginal rather than failing the scan
    doc = {
        "kind": "equilibrium",
        "dimension": 2,
        "field": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
        "point": [0.0, 0.0],
        "gain": [[0.2, 0.0], [0.0, 0.2]],
        "delay": 2 * np.pi,
    }
    path = tmp_path / "center.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 0 and err == ""
    marginal = json.loads(out)["results"]["spectrum"]["marginal"]
    assert sorted(round(r["value"]["im"], 9) for r in marginal) == [-1.0, 1.0]
    assert all(abs(r["value"]["re"]) <= 1e-9 and r["algebraic"] == 1 for r in marginal)


def test_analyze_answers_a_large_real_root(tmp_path, capsys):
    # the root near 1e7 was refused by a residual that could not fall below
    # the spacing of doubles there, and analyze exited 3
    doc = {"kind": "equilibrium", "dimension": 1, "field": {"matrix": [[1e7]]},
           "point": [0.0], "gain": [[0.1]], "delay": 1.0}
    path = tmp_path / "large-root.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 0 and err == ""
    roots = json.loads(out)["results"]["spectrum"]["roots"]
    assert [r["value"]["re"] for r in roots] == [pytest.approx(1e7 + 0.1, rel=1e-15)]


def test_analyze_periodic_envelope(case_file, capsys):
    path = case_file("center-periodic")
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["kind"] == "periodic-linear"
    det = res["determining"]
    assert det["equal"] is True
    assert det["g_ode"] == 2 and det["g_dde"] == 2


def _slow_growth_document(tmp_path):
    """x' = r x with e^{2 pi r} = 1 + 1e-3, gain 0.3, T = 2 pi: the Schur
    complement of M - I has the one singular value 1.001e-3, inside the
    band the determining check refuses to decide in."""
    doc = {
        "kind": "periodic-linear",
        "dimension": 1,
        "field": {"matrix": [[float(np.log1p(1e-3) / (2 * np.pi))]]},
        "gain": [[0.3]],
        "delay": 2 * np.pi,
        "period": 2 * np.pi,
    }
    path = tmp_path / "slow-growth.json"
    path.write_text(json.dumps(doc))
    return path


def test_analyze_periodic_keeps_the_report_when_the_determining_check_refuses(
    tmp_path, capsys
):
    path = _slow_growth_document(tmp_path)
    out = tmp_path / "report.json"
    code, _, err = _run(capsys, ["analyze", str(path), "--out", str(out), "--csv"])
    assert code == 0, err
    res = json.loads(out.read_text())["results"]
    det = res["determining"]
    assert sorted(det) == ["nodes", "refused"]
    assert det["nodes"] == 32
    assert "singular value 1.001e-03 of the Schur complement of M - I" in det["refused"]
    top = res["multipliers"]["entries"][0]["value"]
    assert top["re"] == pytest.approx(1.001, rel=1e-9)
    assert [v["rule"] for v in res["verdicts"]] == [
        "odd-number", "commuting-real-spectrum", "commuting-gain",
    ]
    assert (tmp_path / "report.csv").read_text().count("\n") >= 2


def test_analyze_periodic_other_numerical_errors_still_exit_3(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise CrossCheckError("monodromy constructions disagree")

    monkeypatch.setattr(cli, "check_determining_invariance", refuse)
    code, out, err = _run(capsys, ["analyze", str(_slow_growth_document(tmp_path))])
    assert code == 3 and out == ""
    assert "disagree" in err


def test_analyze_periodic_commuting_gain_witness_next_to_the_axis(tmp_path, capsys):
    # the reduced root 3.466e-7 sits just right of the axis, where the
    # half-plane search cannot certify it; the closed form still gives the
    # commuting-gain witness exp(m T), with m the root for the exponent the
    # verdict reads from the top multiplier
    doc = {
        "kind": "periodic-linear",
        "dimension": 2,
        "field": {"matrix": [[1e-6, 0.0], [0.0, -1.0]]},
        "gain": [[-0.3, 0.0], [0.0, -0.3]],
        "delay": 2 * np.pi,
        "period": 2 * np.pi,
    }
    path = tmp_path / "slow-orbit.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 0, err
    verdicts = json.loads(out)["results"]["verdicts"]
    assert [v["rule"] for v in verdicts] == [
        "odd-number", "commuting-real-spectrum", "commuting-gain",
    ]
    assert all(v["outcome"] == "excluded" for v in verdicts)
    period = 2 * np.pi
    exponent = np.log(verdicts[0]["witness"]["re"]) / period
    m = scipy.optimize.brentq(
        lambda m: m - exponent - 0.3 * np.expm1(-m * period), 0.0, 1.0, xtol=1e-22
    )
    for v in verdicts[1:]:
        assert v["witness"]["re"] == pytest.approx(np.exp(m * period), rel=1e-14)
        assert v["witness"]["im"] == 0.0
    assert verdicts[2]["witness"]["re"] == pytest.approx(1.0000021779179675, rel=1e-14)


def test_analyze_periodic_builds_ode_monodromy_once(case_file, capsys, monkeypatch):
    path = case_file("trig-periodic")
    builds = []
    build = periodic.ode_monodromy

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "ode_monodromy", counted)
    monkeypatch.setattr(periodic, "ode_monodromy", counted)
    code, shared, _ = _run(capsys, ["analyze", path])
    assert code == 0
    assert len(builds) == 1

    # the same analysis with every consumer building its own monodromy
    monkeypatch.setattr(
        cli, "periodic_verdicts",
        lambda monodromy, tol: periodic.periodic_verdicts(
            periodic.ode_monodromy(monodromy.problem), tol
        ),
    )
    monkeypatch.setattr(
        cli, "check_determining_invariance",
        lambda problem, nodes, tol, monodromy: periodic.check_determining_invariance(
            problem, nodes=nodes, tol=tol
        ),
    )
    code, separate, _ = _run(capsys, ["analyze", path])
    assert code == 0
    assert len(builds) == 4
    a, b = json.loads(shared), json.loads(separate)
    a.pop("timing_s"), b.pop("timing_s")
    assert a == b


def test_analyze_is_deterministic_up_to_timing(case_file, capsys):
    path = case_file("focus-resonant-inward")
    _, out1, _ = _run(capsys, ["analyze", path])
    _, out2, _ = _run(capsys, ["analyze", path])
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_s"), b.pop("timing_s")
    assert a == b


def test_analyze_writes_envelope_and_csv(case_file, capsys, tmp_path):
    path = case_file("scalar-basic")
    out_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["analyze", path, "--out", str(out_path), "--csv"])
    assert code == 0
    env = json.loads(out_path.read_text())
    assert env["results"]["kind"] == "equilibrium"
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "re,im,algebraic,geometric,residual,marginal"


def test_analyze_csv_needs_out(case_file, capsys):
    path = case_file("scalar-basic")
    code, out, err = _run(capsys, ["analyze", path, "--csv"])
    assert code == 2 and out == ""
    assert "input error" in err


def test_analyze_has_no_tol_one_flag(case_file, capsys):
    # the unit-cluster tolerance is set in the document, where the digest
    # covers it
    with pytest.raises(SystemExit) as exc:
        main(["analyze", case_file("center-periodic"), "--tol-one", "1e-4"])
    assert exc.value.code == 2


def test_analyze_periodic_reads_tol_one_from_the_document(tmp_path, capsys):
    doc = get_case("center-periodic").document()
    doc["tolerances"] = {"tol_one": 1e-4}
    path = tmp_path / "center.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["analyze", str(path), "--nodes", "16"])
    assert code == 0
    assert json.loads(out)["tolerances"]["tol_one"] == 1e-4


def test_analyze_periodic_reads_mu_floor_from_the_document(tmp_path, capsys):
    # the document's tolerances are the only way to set the multiplier floor
    doc = get_case("trig-periodic").document()
    doc["tolerances"] = {"mu_floor": 0.5}
    path = tmp_path / "trig.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0
    res = json.loads(out)["results"]
    mult = res["multipliers"]
    assert mult["floor"] == 0.5
    [entry] = mult["entries"]
    assert entry["value"]["re"] == pytest.approx(1.8914243274077, abs=1e-12)
    assert mult["outside_count"] == 1
    assert [v["outcome"] for v in res["verdicts"]] == ["excluded"] * 3


@pytest.mark.parametrize(
    "bounds, message",
    [(["1", "0", "1"], "empty region"), (["0", "1", "nan"], "must be finite")],
)
def test_analyze_rejects_bad_region(case_file, capsys, bounds, message):
    path = case_file("scalar-basic")
    code, _, err = _run(capsys, ["analyze", path, "--region", *bounds])
    assert code == 2
    assert "input error" in err and message in err


def test_analyze_missing_file(capsys):
    code, _, err = _run(capsys, ["analyze", "/no/such/file.json"])
    assert code == 2
    assert "input error" in err


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "invalid JSON" in err


def test_analyze_schema_error_names_path(tmp_path, capsys):
    doc = get_case("scalar-basic").document()
    doc["delay"] = -3.0
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "$.delay" in err


def _expression_doc(tmp_path, expression):
    doc = {
        "kind": "equilibrium",
        "dimension": 1,
        "field": {"expressions": [expression]},
        "point": [0.0],
        "gain": [[0.3]],
        "delay": 6.283185307179586,
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--horizon", "5"]])
def test_equilibrium_field_depending_on_t_is_an_input_error(tmp_path, capsys, argv):
    # the linearization of x' = (1 + t) x is not J(0) = 1; the equilibrium
    # analyses read an autonomous field only
    path = _expression_doc(tmp_path, "(1 + t) * x1")
    code, out, err = _run(capsys, [argv[0], path, *argv[1:]])
    assert code == 2 and out == ""
    assert err.startswith("input error: $.field.expressions[0]")


@pytest.mark.parametrize(
    "expression", ["(" * 1200 + "-x1" + ")" * 1200, "-x1" + " + 0*x1" * 3000]
)
def test_analyze_refuses_an_expression_nested_too_deeply(tmp_path, capsys, expression):
    code, out, err = _run(capsys, ["analyze", _expression_doc(tmp_path, expression)])
    assert code == 2 and out == ""
    assert err.startswith("input error: $.field.expressions[0]")


def test_autonomous_expression_field_is_accepted(tmp_path, capsys):
    code, out, _ = _run(capsys, ["analyze", _expression_doc(tmp_path, "x1 - x1^3")])
    assert code == 0
    assert json.loads(out)["results"]["kind"] == "equilibrium"


# --- hopf --------------------------------------------------------------------


def test_hopf_csv_contains_closed_form_sample(capsys):
    code, out, _ = _run(
        capsys,
        ["hopf", "0.05", str(2 * np.pi), "--branches", "0", "--samples", "200"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "branch,omega,re_gain,im_gain"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 200
    # the closed form at omega = 0.5 gives k* = -0.025 + 0.25 i
    omegas = np.array([float(r[1]) for r in rows])
    res = np.array([float(r[2]) for r in rows])
    ims = np.array([float(r[3]) for r in rows])
    idx = int(np.argmin(np.abs(omegas - 0.5)))
    k = np.interp(0.5, omegas, res) + 1j * np.interp(0.5, omegas, ims)
    assert k == pytest.approx(-0.025 + 0.25j, abs=1e-4)
    assert abs(omegas[idx] - 0.5) < 0.01
    assert np.all(np.diff(res) < 0)


def test_hopf_json_envelope(capsys):
    code, out, _ = _run(
        capsys, ["hopf", "0.05", "6.283185307179586", "--branches", "0", "--json"]
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["columns"] == ["branch", "omega", "re_gain", "im_gain"]


def test_hopf_rejects_stable_rate(capsys):
    code, _, err = _run(capsys, ["hopf", "-0.05", "6.28"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-0.05", "6.28"], "rate must be positive"),
        (["nan", "6.28"], "rate must be positive"),
        (["0.05", "-6.28"], "delay must be positive"),
        (["0.05", "6.28", "--branches", "0", "-1"], "branch indices must be nonnegative"),
        (["0.05", "inf"], "must be finite"),
        (["inf", "6.28"], "must be finite"),
    ],
)
def test_hopf_input_errors_exit_2(capsys, argv, message):
    code, _, err = _run(capsys, ["hopf"] + argv)
    assert code == 2
    assert message in err


def test_hopf_refuses_a_sample_count_above_the_cap(capsys):
    # every sample of every branch is built before the table is written
    code, out, err = _run(capsys, ["hopf", "0.05", "6.28", "--samples", "100000000"])
    assert code == 2 and out == ""
    assert f"must be at most {cli._MAX_HOPF_SAMPLES}" in err
    code, _, _ = _run(capsys, ["hopf", "0.05", "6.28", "--branches", "0", "1", "--samples",
                               str(cli._MAX_HOPF_SAMPLES // 2 + 1)])
    assert code == 2


def test_hopf_empty_branches_gives_header_only(capsys):
    code, out, _ = _run(capsys, ["hopf", "0.05", "6.28", "--branches"])
    assert code == 0
    assert out.strip() == "branch,omega,re_gain,im_gain"


# --- locus --------------------------------------------------------------------


def test_locus_real_sweep_counts(case_file, capsys):
    path = case_file("focus-resonant-inward")
    code, out, _ = _run(capsys, ["locus", path, "real:-0.5:0.5:5", "--json"])
    assert code == 0
    env = json.loads(out)
    counts = env["results"]["counts"]
    assert counts[0]["s"] == -0.5 and counts[-1]["s"] == 0.5
    # the resonant focus stays unstable across the whole sweep
    assert all(c["unstable_count"] >= 2 for c in counts)


def test_locus_counts_follow_the_document_axis_band(tmp_path, capsys):
    # a wider axis band in the document leaves roots well off the axis counted
    doc = get_case("scalar-basic").document()
    counts = []
    for tol in ({}, {"tol_axis": 1e-6}):
        doc["tolerances"] = tol
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(capsys, ["locus", str(path), "real:-1:1:5", "--json"])
        assert code == 0
        counts.append([c["unstable_count"] for c in json.loads(out)["results"]["counts"]])
    assert counts[0] == counts[1]
    assert counts[0] and all(c == 1 for c in counts[0])


def test_locus_rejects_bad_path_spec(case_file, capsys):
    path = case_file("focus-resonant-inward")
    for spec in ("real:0:1", "spiral:0:1:5", "real:0:1:0", "real:a:b:5"):
        code, _, err = _run(capsys, ["locus", path, spec])
        assert code == 2, spec
        assert "input error" in err


@pytest.mark.parametrize("spec", ["real:-1:1:100000000", "ray:0.7:0:1:10001"])
def test_locus_refuses_a_sample_count_above_the_cap(case_file, capsys, spec):
    # every gain of the path is built before the first root search: 10^8
    # samples asked for about 28 GB
    code, out, err = _run(capsys, ["locus", case_file("scalar-basic"), spec])
    assert code == 2 and out == ""
    assert f"sample count must be at most {cli._MAX_SAMPLES}" in err


@pytest.mark.parametrize("spec", ["ray:nan:0:1:3", "ray:inf:0:1:3", "real:nan:1:3"])
def test_locus_rejects_a_non_finite_path_number(case_file, capsys, spec):
    code, out, err = _run(capsys, ["locus", case_file("scalar-basic"), spec])
    assert code == 2 and out == ""
    assert err.startswith("input error:")
    assert "finite" in err


def test_locus_csv_output(case_file, capsys):
    path = case_file("scalar-basic")
    code, out, _ = _run(capsys, ["locus", path, "real:0.1:0.5:3"])
    assert code == 0
    assert out.splitlines()[0] == "s,re,im,trace"


def test_locus_periodic_problem_rejected(case_file, capsys):
    path = case_file("center-periodic")
    code, _, err = _run(capsys, ["locus", path, "real:0:1:3"])
    assert code == 2
    assert "equilibrium" in err


# --- simulate -----------------------------------------------------------------


def test_simulate_consistency_summary(case_file, capsys, tmp_path):
    path = case_file("scalar-basic")
    out_csv = tmp_path / "traj.csv"
    code, out, _ = _run(
        capsys, ["simulate", path, "--seed", "7", "--out", str(out_csv)]
    )
    assert code == 0
    summary = json.loads(out)["results"]
    assert summary["kind"] == "simulation"
    assert summary["seed"] == 7
    assert summary["unstable_count"] == 1
    assert summary["consistent"] is True
    assert summary["growth_rate"] == pytest.approx(0.30618565556145744, rel=1e-2)
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x1"


def test_simulate_expression_document_runs_the_stage_loop_like_the_matrix(
    tmp_path, capsys, monkeypatch
):
    # every catalog equilibrium is a LinearField, which takes the affine
    # march; the same scalar field written as an expression takes the stage
    # loop, and the two documents must tell the same story
    calls = []
    original = ExpressionField.__call__

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(ExpressionField, "__call__", counted)
    results = []
    for field in ({"expressions": ["0.05 * x1"]}, {"matrix": [[0.05]]}):
        doc = {"kind": "equilibrium", "dimension": 1, "field": field,
               "gain": [[0.3]], "delay": 6.283185307179586}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, ["simulate", str(path), "--seed", "5"])
        assert code == 0 and err == ""
        results.append(json.loads(out)["results"])
    stage, affine = results
    assert calls  # the expression document took the stage loop
    for key in ("unstable_count", "blown_at", "consistent"):
        assert stage[key] == affine[key]
    assert stage["growth_rate"] == pytest.approx(affine["growth_rate"], rel=1e-9)


def test_simulate_reports_the_amplitude_it_draws_with(case_file, capsys, monkeypatch):
    drawn = []
    draw = cli.perturbed_history

    def recorded(point, delay, amplitude, **kwargs):
        drawn.append(amplitude)
        return draw(point, delay, amplitude, **kwargs)

    monkeypatch.setattr(cli, "perturbed_history", recorded)
    code, out, _ = _run(capsys, ["simulate", case_file("scalar-basic")])
    assert code == 0
    assert drawn == [json.loads(out)["results"]["amplitude"]]


def test_simulate_stable_case(case_file, capsys):
    path = case_file("scalar-stable")
    code, out, _ = _run(capsys, ["simulate", path])
    assert code == 0
    summary = json.loads(out)["results"]
    assert summary["unstable_count"] == 0
    assert summary["consistent"] is True
    rate = summary["growth_rate"]
    assert summary["underflow"] or rate < 0


def test_one_parser_serves_every_call(case_file, capsys):
    # the parser is built once per process; a run, a failed parse or
    # another command must leave nothing behind for the next run
    assert cli.build_parser() is cli.build_parser()
    sim = ["simulate", case_file("scalar-basic"), "--seed", "3"]
    ana = ["analyze", case_file("focus-resonant-inward")]
    bad = ["simulate", "--horizon"]
    first = {}
    for argv in (sim, ana, bad, sim, ana):
        if argv is bad:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            capsys.readouterr()
            continue
        code, out, _ = _run(capsys, argv)
        assert code == 0
        env = json.loads(out)
        env.pop("timing_s")
        assert first.setdefault(argv[0], env) == env


def test_simulate_periodic_rejected(case_file, capsys):
    path = case_file("orbit-unstable")
    code, _, err = _run(capsys, ["simulate", path])
    assert code == 2
    assert "equilibrium" in err


def test_simulate_rejects_an_infinite_horizon(case_file, capsys):
    path = case_file("scalar-basic")
    code, out, err = _run(capsys, ["simulate", path, "--horizon", "inf"])
    assert code == 2 and out == ""
    assert "t_end" in err


def test_simulate_rejects_a_negative_seed(case_file, capsys):
    code, out, err = _run(capsys, ["simulate", case_file("scalar-basic"), "--seed", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("input error:")
    assert "seed" in err


class _NoEmpty:
    """numpy as ``simulate`` sees it, except that ``np.empty`` fails."""

    def __getattr__(self, name):
        if name == "empty":
            raise AssertionError("simulate allocated its step arrays")
        return getattr(np, name)


@pytest.mark.parametrize("extra", [["--dt", "1e-300"], ["--dt", "5e-324"],
                                   ["--horizon", "1e12"]])
def test_simulate_refuses_a_step_count_beyond_the_cap(case_file, capsys, monkeypatch, extra):
    # 1e-300 used to die in np.empty with "Maximum allowed dimension
    # exceeded"; a subnormal dt overflows delay / dt to inf; a long horizon
    # at the default dt asks for 1e14 steps.  All are refused before the
    # arrays are allocated.
    monkeypatch.setattr(simulate, "np", _NoEmpty())
    code, out, err = _run(capsys, ["simulate", case_file("scalar-basic"), *extra])
    assert code == 2 and out == ""
    assert err.startswith("input error:")
    assert f"more than {simulate._MAX_STEPS} steps" in err


def test_simulate_first_step_blow_up_has_no_growth_rate(tmp_path, capsys):
    # the run blows up on its first step, so its tail holds one sample and
    # no slope; blown_at alone carries the growth sign
    doc = {
        "kind": "equilibrium",
        "dimension": 1,
        "field": {"matrix": [[1e6]]},
        "point": [0.0],
        "gain": [[0.1]],
        "delay": 1.0,
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = _run(capsys, ["simulate", str(path)])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["blown_at"] == res["dt"]
    assert res["growth_rate"] is None and res["underflow"] is False
    assert res["unstable_count"] == 1 and res["consistent"] is True


def test_simulate_stops_where_the_run_leaves_the_field_domain(tmp_path, capsys):
    # the unstable run drives x1 below -1, where log(1 + x1) is undefined
    code, out, _ = _run(capsys, ["simulate", _expression_doc(tmp_path, "log(1 + x1)")])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["blown_at"] is not None and res["consistent"] is True


def test_simulate_deterministic_for_fixed_seed(case_file, capsys):
    path = case_file("focus-resonant-outward")
    _, out1, _ = _run(capsys, ["simulate", path, "--seed", "3", "--horizon", "20"])
    _, out2, _ = _run(capsys, ["simulate", path, "--seed", "3", "--horizon", "20"])
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_s"), b.pop("timing_s")
    assert a == b


# --- catalog ------------------------------------------------------------------


def test_catalog_listing(capsys):
    code, out, _ = _run(capsys, ["catalog"])
    assert code == 0
    listing = json.loads(out)
    names = [c["name"] for c in listing]
    assert "scalar-basic" in names and "orbit-unstable" in names
    for entry in listing:
        assert set(entry) == {"name", "summary", "kind", "digest"}


def test_catalog_single_document_round_trips(capsys, tmp_path):
    code, out, _ = _run(capsys, ["catalog", "center-periodic"])
    assert code == 0
    doc = json.loads(out)
    assert doc == get_case("center-periodic").document()


def test_catalog_unknown_name(capsys):
    code, _, err = _run(capsys, ["catalog", "nonexistent"])
    assert code == 2
    assert "input error" in err
