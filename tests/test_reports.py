"""Serialization helpers: number formatting, JSON, CSV, atomic writes."""

import json
import math
import os

import numpy as np
import pytest

from pyrastab.benchmarks import case_names, get_case
from pyrastab.equilibria import equilibrium_verdicts, find_roots, scalar_characteristic
from pyrastab.periodic import ode_monodromy, periodic_verdicts
from pyrastab.problemio import load_problem
from pyrastab.problems import EquilibriumProblem
from pyrastab.reports import (
    atomic_write_text,
    dump_json,
    envelope,
    fmt,
    hopf_table,
    locus_table,
    multiplier_table,
    render_csv,
    spectrum_table,
    to_jsonable,
    trajectory_table,
    write_csv,
)
from pyrastab.verdicts import Hypothesis, Verdict


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(12)
    for x in rng.uniform(-1e6, 1e6, 50):
        assert float(fmt(float(x))) == float(x)
    for x in (1e-300, 1.0 / 3.0, np.pi, -0.0):
        assert float(fmt(x)) == x


def test_to_jsonable_handles_numpy_and_complex():
    out = to_jsonable(
        {
            "a": np.float64(1.5),
            "b": np.int32(7),
            "c": 1.0 + 2.0j,
            "d": np.array([[1.0, 2.0]]),
            "e": (1, 2),
        }
    )
    assert out == {
        "a": 1.5,
        "b": 7,
        "c": {"re": 1.0, "im": 2.0},
        "d": [[1.0, 2.0]],
        "e": [1, 2],
    }
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dump_json_is_sorted_and_strict():
    text = dump_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        dump_json({"x": math.nan})


def test_atomic_write_text(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "world\n")  # overwrite in place
    assert target.read_text() == "world\n"
    # no stray temporaries left behind
    assert os.listdir(tmp_path) == ["out.json"]


def test_render_csv_golden():
    text = render_csv(("a", "b"), [[1, 2.5], [True, "x"]])
    assert text == "a,b\n1,2.5\nx\n".replace("x", "1,x")  # bool -> 1


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("h",), [[0.5]])
    assert path.read_text() == "h\n0.5\n"


def test_spectrum_table_flags_marginal_roots():
    rep = find_roots(scalar_characteristic(0.05, 0.3, 2.0))
    header, rows = spectrum_table(rep)
    assert header == ("re", "im", "algebraic", "geometric", "residual", "marginal")
    assert len(rows) == len(rep.all_roots)
    for row in rows:
        assert row[-1] in (0, 1)


def test_hopf_table_shape():
    from pyrastab.equilibria import hopf_curves

    fam = hopf_curves(0.05, 2 * np.pi, branches=(0,), samples=10)
    header, rows = hopf_table(fam)
    assert header == ("branch", "omega", "re_gain", "im_gain")
    assert len(rows) == 10
    assert all(row[0] == 0 for row in rows)


def test_trajectory_table_headers_follow_dimension():
    from pyrastab.simulate import Trajectory

    times = np.linspace(0.0, 1.0, 3)
    traj = Trajectory(times, np.zeros((3, 2)), np.zeros((3, 2)))
    header, rows = trajectory_table(traj)
    assert header == ("t", "x1", "x2")
    assert len(rows) == 3


def test_envelope_structure():
    from pyrastab.tolerances import DEFAULT

    env = envelope("abc123", {"k": 1}, DEFAULT, 0.25)
    assert env["tool"]["name"] == "pyrastab"
    assert env["input"]["digest"] == "abc123"
    assert env["results"] == {"k": 1}
    assert env["tolerances"]["tol_res"] == 1e-10
    assert env["timing_s"] == 0.25
    # envelopes must be JSON-clean as-is
    json.loads(dump_json(to_jsonable(env)))


# --- verdicts: to_jsonable against the per-class dicts it replaced ----------------


def _former_verdict_dict(v: Verdict) -> dict:
    """``Verdict.to_dict`` with ``Hypothesis.to_dict`` as they were before
    ``to_jsonable`` became the one serializer of results."""

    def hypothesis(h: Hypothesis) -> dict:
        out: dict = {"name": h.name, "passed": bool(h.passed)}
        if h.detail:
            out["detail"] = h.detail
        if h.value is not None:
            out["value"] = float(h.value)
        if h.tolerance is not None:
            out["tolerance"] = float(h.tolerance)
        return out

    out: dict = {
        "rule": v.rule,
        "outcome": v.outcome,
        "hypotheses": [hypothesis(h) for h in v.hypotheses],
    }
    if v.witness is not None:
        out["witness"] = {"re": float(v.witness.real), "im": float(v.witness.imag)}
    return out


def _same_json(v: Verdict) -> bool:
    # compared as text, so 1 against 1.0 or true against 1 counts as a change
    return dump_json(v) == dump_json(_former_verdict_dict(v))


@pytest.mark.parametrize("name", case_names())
def test_catalog_verdicts_serialize_as_before(name):
    doc, problem = load_problem(get_case(name).document())
    if isinstance(problem, EquilibriumProblem):
        verdicts = equilibrium_verdicts(problem, doc.tolerances)
    else:
        verdicts = periodic_verdicts(ode_monodromy(problem), doc.tolerances)
    assert all(_same_json(v) for v in verdicts)


@pytest.mark.parametrize(
    "hypotheses, witness",
    [
        ((Hypothesis("bare", True),), None),
        ((Hypothesis("detailed", True, "why", value=2.0, tolerance=0.5),), 1.5 - 0.0j),
        ((Hypothesis("measured", np.bool_(True), value=np.float64(3.0)),), np.complex128(2j)),
        ((Hypothesis("bounded", True, tolerance=1e-8), Hypothesis("fails", np.bool_(False))), 1j),
    ],
)
def test_hand_built_verdicts_serialize_as_before(hypotheses, witness):
    v = Verdict.from_hypotheses("rule", hypotheses, witness)
    assert _same_json(v)
    assert to_jsonable(v.hypotheses[0])["passed"] is True
