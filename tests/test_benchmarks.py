"""Replay the analysis pipeline against every recorded catalog fact.

The facts carry their own provenance (closed forms, bisection, frozen
refined grids), so this module is a regression net over the whole
library: root extraction, verdicts, multipliers, invariance checks, the
Hopf closed form, and time-domain growth signs.
"""

import numpy as np
import pytest

from pyrastab.benchmarks import CATALOG, case_names, get_case
from pyrastab.equilibria import (
    characteristic_matrix,
    critical_gain,
    equilibrium_verdicts,
    find_roots,
)
from pyrastab.periodic import (
    check_determining_invariance,
    multipliers,
    ode_monodromy,
    periodic_verdicts,
)
from pyrastab.problems import EquilibriumProblem, PeriodicLinearProblem
from pyrastab.simulate import growth_rate, integrate, perturbed_history


class _Pipeline:
    """Lazy per-case analysis shared by all fact checks of one case."""

    def __init__(self, problem):
        self.problem = problem
        self._spectrum = None
        self._verdicts = None
        self._multipliers = None

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = find_roots(characteristic_matrix(self.problem))
        return self._spectrum

    @property
    def verdicts(self):
        if self._verdicts is None:
            if isinstance(self.problem, PeriodicLinearProblem):
                self._verdicts = periodic_verdicts(ode_monodromy(self.problem))
            else:
                self._verdicts = equilibrium_verdicts(self.problem)
        return self._verdicts

    @property
    def multiplier_report(self):
        if self._multipliers is None:
            self._multipliers = multipliers(ode_monodromy(self.problem))
        return self._multipliers

    def verdict(self, rule):
        for v in self.verdicts:
            if v.rule == rule:
                return v
        raise AssertionError(f"no verdict for rule {rule!r}")


def _check_fact(pipe, fact):
    kind, value, tol = fact.kind, fact.value, fact.tol
    if kind == "dominant-root":
        dom = pipe.spectrum.dominant
        assert dom is not None, "expected an unstable root"
        assert dom.value.real == pytest.approx(value["re"], abs=tol)
        assert abs(dom.value.imag) == pytest.approx(abs(value["im"]), abs=tol)
    elif kind == "unstable-count":
        assert pipe.spectrum.unstable_count() == value
    elif kind == "verdict":
        assert pipe.verdict(value["rule"]).outcome == value["outcome"]
    elif kind == "witness":
        w = pipe.verdict(value["rule"]).witness
        assert w is not None
        assert w.real == pytest.approx(value["re"], abs=tol)
        assert abs(w.imag) == pytest.approx(abs(value["im"]), abs=tol)
    elif kind == "growth-sign":
        prob = pipe.problem
        delay = prob.feedback.delay
        hist = perturbed_history(prob.point, delay, 1e-6, seed=101)
        traj = integrate(prob.field, prob.feedback, hist, 20 * delay)
        span = traj.times[-1] - traj.times[0]
        rate = growth_rate(traj, window=span / 3, reference=prob.point)
        measured = -1 if rate == float("-inf") else int(np.sign(rate))
        assert measured == value
    elif kind == "multipliers":
        rep = pipe.multiplier_report
        assert len(rep.entries) == len(value)
        for want in value:
            target = complex(want["re"], want["im"])
            entry = min(rep.entries, key=lambda e: abs(e.value - target))
            assert entry.value == pytest.approx(target, abs=tol)
            assert entry.algebraic == want["algebraic"]
            assert entry.geometric == want["geometric"]
    elif kind == "unit-geometric":
        assert pipe.multiplier_report.unit_geometric == value
    elif kind == "determining-invariance":
        inv = check_determining_invariance(pipe.problem, nodes=32)
        assert inv.equal == value
    elif kind == "hopf-sample":
        rate = float(pipe.problem.jacobian()[0, 0])
        delay = pipe.problem.feedback.delay
        k = complex(critical_gain(rate, delay, value["omega"]))
        assert k.real == pytest.approx(value["re"], abs=tol)
        assert k.imag == pytest.approx(value["im"], abs=tol)
    else:
        raise AssertionError(f"unknown fact kind {kind!r}")


@pytest.mark.parametrize("name", case_names())
def test_catalog_case_facts(name):
    case = get_case(name)
    assert case.facts, f"case {name} records no facts"
    pipe = _Pipeline(case.problem())
    for fact in case.facts:
        _check_fact(pipe, fact)


def test_catalog_covers_both_problem_kinds():
    kinds = {type(get_case(n).problem()) for n in case_names()}
    assert EquilibriumProblem in kinds
    assert PeriodicLinearProblem in kinds


def test_catalog_has_enough_excluded_equilibria():
    # the simulation acceptance sweep needs ten excluded equilibrium cases
    excluded = []
    for name in case_names():
        case = get_case(name)
        prob = case.problem()
        if not isinstance(prob, EquilibriumProblem):
            continue
        wants_excluded = any(
            f.kind == "verdict" and f.value["outcome"] == "excluded"
            for f in case.facts
        )
        if wants_excluded:
            excluded.append(name)
    assert len(excluded) >= 10


def test_get_case_rejects_unknown():
    with pytest.raises(KeyError):
        get_case("no-such-case")


def test_case_documents_round_trip_digest():
    from pyrastab.problemio import document_digest

    for name in case_names():
        doc = get_case(name).document()
        assert document_digest(doc) == document_digest(doc)
