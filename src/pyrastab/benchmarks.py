"""Named benchmark problems with independently established expectations.

Each case records facts whose values come from outside the analysis
pipeline: closed forms, one-dimensional bisection on the real line, or a
finer discretization frozen after a convergence check.  The test suite
replays the pipeline against these numbers; the command line exposes the
same problems through the `catalog` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .fields import ConstantCoefficient, LinearField, TrigCoefficient
from .problemio import describe_problem
from .problems import DelayFeedback, EquilibriumProblem, PeriodicLinearProblem

__all__ = [
    "ExpectedFact",
    "CatalogCase",
    "CATALOG",
    "get_case",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ExpectedFact:
    """A checkable expectation with its provenance spelled out."""

    kind: str
    value: object
    provenance: str
    tol: float = 0.0


@dataclass(frozen=True)
class CatalogCase:
    name: str
    summary: str
    make: Callable[[], object]
    facts: Tuple[ExpectedFact, ...] = field(default=())

    def problem(self):
        return self.make()

    def document(self) -> dict:
        return describe_problem(self.problem(), name=self.name)


# ---------------------------------------------------------------------------
# case builders


def _scalar(gain: float, delay: float, rate: float = 0.05) -> EquilibriumProblem:
    fld = LinearField(np.array([[rate]]))
    return EquilibriumProblem(fld, np.zeros(1), DelayFeedback(np.array([[gain]]), delay))


def _focus(gain: np.ndarray, delay: float) -> EquilibriumProblem:
    fld = LinearField(np.array([[0.05, -1.0], [1.0, 0.05]]))
    return EquilibriumProblem(fld, np.zeros(2), DelayFeedback(np.asarray(gain, float), delay))


def _odd_3d() -> EquilibriumProblem:
    j = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, -1.0], [0.0, 1.0, -1.0]])
    return EquilibriumProblem(
        LinearField(j), np.zeros(3), DelayFeedback(0.3 * np.eye(3), TWO_PI)
    )


def _saddle() -> EquilibriumProblem:
    j = np.diag([1.0, -0.5])
    return EquilibriumProblem(LinearField(j), np.zeros(2), DelayFeedback(0.25 * np.eye(2), 2.0))


def _center_periodic() -> PeriodicLinearProblem:
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    k = np.array([[1.0, 2.0], [0.0, 1.0]])
    return PeriodicLinearProblem(ConstantCoefficient(a), TWO_PI, DelayFeedback(k, TWO_PI))


def _constructed_orbit(b_diag, gain) -> PeriodicLinearProblem:
    # A(t) = cos(t) S + P(t) B P(t)^-1 with P = expm(S sin t): the
    # fundamental solution is P(t) expm(B t), so the monodromy is expm(B T)
    # exactly -- a time-varying problem with closed-form multipliers.
    import scipy.linalg

    s = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.diag(b_diag)
    m = 256
    ts = np.arange(m) * (TWO_PI / m)
    vals = np.empty((m, 2, 2))
    for i, t in enumerate(ts):
        p = scipy.linalg.expm(s * np.sin(t))
        vals[i] = np.cos(t) * s + p @ b @ np.linalg.inv(p)
    coeff = TrigCoefficient(vals, TWO_PI)
    return PeriodicLinearProblem(coeff, TWO_PI, DelayFeedback(np.asarray(gain, float), TWO_PI))


def _diag_periodic() -> PeriodicLinearProblem:
    a = np.diag([0.1, 0.2])
    return PeriodicLinearProblem(
        ConstantCoefficient(a), TWO_PI, DelayFeedback(0.3 * np.eye(2), TWO_PI)
    )


def _trig_periodic() -> PeriodicLinearProblem:
    a0 = np.array([[0.15, 0.2], [-0.1, -0.3]])
    a1 = np.array([[0.0, 0.1], [0.1, 0.0]])
    ts = np.arange(64) * (TWO_PI / 64)
    vals = np.array([a0 + a1 * np.cos(t) for t in ts])
    return PeriodicLinearProblem(
        TrigCoefficient(vals, TWO_PI), TWO_PI, DelayFeedback(0.25 * np.eye(2), TWO_PI)
    )


# ---------------------------------------------------------------------------
# fact shorthands


def _root(re, im, tol, prov):
    return ExpectedFact("dominant-root", {"re": re, "im": im}, prov, tol)


def _count(n):
    return ExpectedFact("unstable-count", n, "root counting cross-checked by hand", 0.0)


def _verdict(rule, outcome):
    return ExpectedFact("verdict", {"rule": rule, "outcome": outcome}, "hypothesis audit", 0.0)


def _witness(rule, re, im, tol, prov):
    return ExpectedFact("witness", {"rule": rule, "re": re, "im": im}, prov, tol)


def _growth(sign):
    return ExpectedFact("growth-sign", sign, "time-domain corroboration", 0.0)


def _multipliers(entries, tol, prov):
    return ExpectedFact("multipliers", entries, prov, tol)


_BISECT = "real-line bisection on the delayed root equation"
_FROZEN = "frozen from a refined grid after a convergence check"


CATALOG: Tuple[CatalogCase, ...] = (
    CatalogCase(
        "scalar-basic",
        "scalar rate 0.05, gain 0.3, delay 2*pi: one real unstable root",
        lambda: _scalar(0.3, TWO_PI),
        (
            _root(0.30618565556145744, 0.0, 1e-10, _BISECT),
            _count(1),
            _verdict("odd-number", "excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 0.30618565556145744, 0.0, 1e-9, _BISECT),
            _growth(1),
            ExpectedFact(
                "hopf-sample",
                {"branch": 0, "omega": 0.5, "re": -0.025, "im": 0.25},
                "closed form: (i*0.5 - 0.05) / (1 - exp(-i*pi)) = (i*0.5 - 0.05)/2",
                1e-12,
            ),
        ),
    ),
    CatalogCase(
        "scalar-damped-gain",
        "scalar rate 0.05, gain -0.5: control shrinks but cannot kill the real root",
        lambda: _scalar(-0.5, TWO_PI),
        (
            _root(0.012431528701189175, 0.0, 1e-10, _BISECT),
            _count(1),
            _verdict("odd-number", "excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 0.012431528701189175, 0.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "scalar-strong-gain",
        "scalar rate 0.05, gain 1.2: strong feedback pushes the root out, not in",
        lambda: _scalar(1.2, TWO_PI),
        (
            _root(1.2495327866203627, 0.0, 1e-10, _BISECT),
            _count(1),
            _verdict("odd-number", "excluded"),
            _witness("commuting-real-spectrum", 1.2495327866203627, 0.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "scalar-stable",
        "decaying scalar with the feedback switched off: the negative control",
        lambda: _scalar(0.0, 1.0, rate=-1.0),
        (
            _count(0),
            _verdict("odd-number", "not-excluded"),
            _growth(-1),
        ),
    ),
    CatalogCase(
        "focus-resonant-inward",
        "unstable focus with rotation number matching the delay, gain 0.2 I",
        lambda: _focus(0.2 * np.eye(2), TWO_PI),
        (
            _root(0.1890077656360003, 1.0, 1e-9, _BISECT + " shifted to the resonant line"),
            _count(2),
            _verdict("odd-number", "not-excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 0.1890077656360003, 1.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "focus-resonant-outward",
        "resonant focus, gain -0.4 I: sign flip does not help on the invariant line",
        lambda: _focus(-0.4 * np.eye(2), TWO_PI),
        (
            _root(0.014702950118970218, 1.0, 1e-9, _BISECT + " shifted to the resonant line"),
            _count(2),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 0.014702950118970218, 1.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "focus-resonant-strong",
        "resonant focus, gain 0.5 I",
        lambda: _focus(0.5 * np.eye(2), TWO_PI),
        (
            _root(0.5323694698379019, 1.0, 1e-9, _BISECT + " shifted to the resonant line"),
            _count(2),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 0.5323694698379019, 1.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "focus-nonresonant",
        "same focus but delay 3: rotation and delay are incommensurate, rules abstain",
        lambda: _focus(0.2 * np.eye(2), 3.0),
        (
            _count(2),
            _verdict("odd-number", "not-excluded"),
            _verdict("commuting-real-spectrum", "not-excluded"),
            _verdict("commuting-gain", "not-excluded"),
            _root(0.324947580030391, 1.00869559159362, 1e-8, _FROZEN),
        ),
    ),
    CatalogCase(
        "focus-diagonal-gain",
        "resonant focus with a gain that does not commute: every rule abstains",
        lambda: _focus(np.diag([0.2, 0.3]), TWO_PI),
        (
            _count(2),
            _verdict("odd-number", "not-excluded"),
            _verdict("commuting-real-spectrum", "not-excluded"),
            _verdict("commuting-gain", "not-excluded"),
            _root(0.24705929328476428, 0.9988357851270732, 1e-8, _FROZEN),
        ),
    ),
    CatalogCase(
        "focus-rotation-gain-inward",
        "resonant focus, rotation-form gain with spectrum 0.1 +/- 0.25i",
        lambda: _focus(np.array([[0.1, -0.25], [0.25, 0.1]]), TWO_PI),
        (
            _count(4),
            _verdict("commuting-real-spectrum", "not-excluded"),
            _verdict("commuting-gain", "excluded"),
            _root(0.10128246225544978, 1.383906385801624, 1e-8, _FROZEN),
            _growth(1),
        ),
    ),
    CatalogCase(
        "focus-rotation-gain-outward",
        "resonant focus, rotation-form gain with spectrum -0.2 +/- 0.15i",
        lambda: _focus(np.array([[-0.2, 0.15], [-0.15, -0.2]]), TWO_PI),
        (
            _count(2),
            _verdict("commuting-real-spectrum", "not-excluded"),
            _verdict("commuting-gain", "excluded"),
            _root(0.01962205831708917, 0.9916695268084285, 1e-8, _FROZEN),
            _growth(1),
        ),
    ),
    CatalogCase(
        "odd-three-dim",
        "3d block system with a single real unstable direction",
        _odd_3d,
        (
            _root(1.2999148911003116, 0.0, 1e-10, _BISECT),
            _count(1),
            _verdict("odd-number", "excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 1.2999148911003116, 0.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "saddle-two-dim",
        "saddle with one unstable direction, delay 2, gain 0.25 I",
        _saddle,
        (
            _root(1.2285805403749581, 0.0, 1e-9, _BISECT),
            _count(1),
            _verdict("odd-number", "excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 1.2285805403749581, 0.0, 1e-9, _BISECT),
            _growth(1),
        ),
    ),
    CatalogCase(
        "center-periodic",
        "rotation coefficient with period-matched delay: two-dimensional unit eigenspace",
        _center_periodic,
        (
            _multipliers(
                [{"re": 1.0, "im": 0.0, "algebraic": 2, "geometric": 2}],
                1e-8,
                "closed form: monodromy of a full rotation is the identity",
            ),
            ExpectedFact("unit-geometric", 2, "closed form", 0.0),
            ExpectedFact("determining-invariance", True, "structural theorem under test", 0.0),
            _verdict("odd-number", "not-excluded"),
            _verdict("commuting-real-spectrum", "not-excluded"),
        ),
    ),
    CatalogCase(
        "orbit-unstable",
        "constructed time-varying coefficient with monodromy expm(diag(0.1,-0.2) T)",
        lambda: _constructed_orbit((0.1, -0.2), 0.2 * np.eye(2)),
        (
            _multipliers(
                [
                    {"re": math.exp(0.1 * TWO_PI), "im": 0.0, "algebraic": 1, "geometric": 1},
                    {"re": math.exp(-0.2 * TWO_PI), "im": 0.0, "algebraic": 1, "geometric": 1},
                ],
                1e-8,
                "closed form via the similarity construction",
            ),
            ExpectedFact("unit-geometric", 0, "closed form", 0.0),
            _verdict("odd-number", "excluded"),
            _witness("odd-number", math.exp(0.1 * TWO_PI), 0.0, 1e-6, "closed form"),
            _verdict("commuting-real-spectrum", "excluded"),
            _witness("commuting-real-spectrum", 5.163306940893759, 0.0, 1e-6,
                     _BISECT + ", exponentiated over one period"),
        ),
    ),
    CatalogCase(
        "orbit-neutral",
        "constructed coefficient with exponents {0, -0.2}: one neutral direction",
        lambda: _constructed_orbit((0.0, -0.2), np.array([[0.3, 0.1], [0.0, 0.3]])),
        (
            _multipliers(
                [
                    {"re": 1.0, "im": 0.0, "algebraic": 1, "geometric": 1},
                    {"re": math.exp(-0.2 * TWO_PI), "im": 0.0, "algebraic": 1, "geometric": 1},
                ],
                1e-8,
                "closed form via the similarity construction",
            ),
            ExpectedFact("unit-geometric", 1, "closed form", 0.0),
            ExpectedFact("determining-invariance", True, "structural theorem under test", 0.0),
            _verdict("odd-number", "not-excluded"),
            _verdict("commuting-real-spectrum", "not-excluded"),
        ),
    ),
    CatalogCase(
        "diag-periodic",
        "diagonal growth in both directions, scalar-like gain 0.3 I",
        _diag_periodic,
        (
            _multipliers(
                [
                    {"re": math.exp(0.2 * TWO_PI), "im": 0.0, "algebraic": 1, "geometric": 1},
                    {"re": math.exp(0.1 * TWO_PI), "im": 0.0, "algebraic": 1, "geometric": 1},
                ],
                1e-8,
                "closed form: constant diagonal coefficient",
            ),
            ExpectedFact("unit-geometric", 0, "closed form", 0.0),
            _verdict("odd-number", "not-excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
            _verdict("commuting-gain", "excluded"),
            _witness("commuting-real-spectrum", 21.16926960884421, 0.0, 1e-6,
                     _BISECT + ", exponentiated over one period"),
        ),
    ),
    CatalogCase(
        "trig-periodic",
        "genuinely time-varying trigonometric coefficient, gain 0.25 I",
        _trig_periodic,
        (
            _multipliers(
                [
                    {"re": 1.89142432740776, "im": 0.0, "algebraic": 1, "geometric": 1},
                    {"re": 0.20601465875687, "im": 0.0, "algebraic": 1, "geometric": 1},
                ],
                1e-9,
                _FROZEN,
            ),
            ExpectedFact("unit-geometric", 0, _FROZEN, 0.0),
            _verdict("odd-number", "excluded"),
            _verdict("commuting-real-spectrum", "excluded"),
        ),
    ),
)


_BY_NAME = {case.name: case for case in CATALOG}


def get_case(name: str) -> CatalogCase:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown catalog case {name!r}; known: {known}")


def case_names() -> Tuple[str, ...]:
    return tuple(case.name for case in CATALOG)
