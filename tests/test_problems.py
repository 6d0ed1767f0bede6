"""Problem containers: validation rules and equilibrium residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrastab.equilibria import CharacteristicMatrix, hopf_curves, resonating_center
from pyrastab.errors import InputError
from pyrastab.fields import (
    ConstantCoefficient,
    LinearField,
    TrigCoefficient,
    parse_field,
)
from pyrastab.problemio import parse_document
from pyrastab.problems import (
    DelayFeedback,
    EquilibriumProblem,
    PeriodicLinearProblem,
    validate_equilibrium,
)
from pyrastab.simulate import HistorySegment, integrate, perturbed_history


def test_delay_feedback_basics():
    fb = DelayFeedback(np.eye(2) * 0.3, 2.0)
    assert fb.dimension == 2


@pytest.mark.parametrize(
    "gain, delay",
    [
        (np.zeros((2, 3)), 1.0),
        (np.zeros(3), 1.0),
        (np.array([[np.inf]]), 1.0),
        (np.eye(2), 0.0),
        (np.eye(2), -1.0),
        (np.eye(2), np.nan),
    ],
)
def test_delay_feedback_rejects_malformed(gain, delay):
    with pytest.raises(InputError):
        DelayFeedback(gain, delay)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 4),
    cols=st.integers(0, 4),
    delay=st.floats(allow_nan=True, allow_infinity=True, width=64),
    poison=st.sampled_from([np.nan, np.inf, -np.inf, None]),
)
def test_delay_feedback_never_accepts_bad_input(rows, cols, delay, poison):
    gain = np.zeros((rows, cols))
    if poison is not None and rows and cols:
        gain[0, 0] = poison
    square = rows == cols and rows > 0
    finite = poison is None or not (rows and cols)
    good_delay = np.isfinite(delay) and delay > 0
    if square and finite and good_delay:
        fb = DelayFeedback(gain, delay)
        assert fb.dimension == rows
    else:
        with pytest.raises(InputError):
            DelayFeedback(gain, delay)


def _document(kind="equilibrium", **over):
    doc = {"kind": kind, "dimension": 1, "field": {"matrix": [[0.1]]},
           "gain": [[0.3]], "delay": 1.0}
    return parse_document({**doc, **over})


_ONE = np.eye(1)
# each input that must be a real, nonempty, square, finite matrix
_MATRIX_SITES = {
    "DelayFeedback.gain": lambda a: DelayFeedback(a, 1.0),
    "LinearField": LinearField,
    "ConstantCoefficient": ConstantCoefficient,
    "TrigCoefficient": lambda a: TrigCoefficient(np.stack([a] * 4), 1.0),
}
# each input that must be a positive finite scalar
_SCALAR_SITES = {
    "DelayFeedback.delay": lambda v: DelayFeedback(_ONE, v),
    "PeriodicLinearProblem.period": lambda v: PeriodicLinearProblem(
        ConstantCoefficient(_ONE), v, DelayFeedback(_ONE, 1.0)
    ),
    "TrigCoefficient.period": lambda v: TrigCoefficient(np.stack([_ONE] * 4), v),
    "CharacteristicMatrix.delay": lambda v: CharacteristicMatrix(_ONE, _ONE, v),
    "resonating_center.delay": lambda v: resonating_center(_ONE, v, 1),
    "hopf_curves.rate": lambda v: hopf_curves(v, 1.0),
    "hopf_curves.delay": lambda v: hopf_curves(0.1, v),
    "integrate.t_end": lambda v: integrate(
        LinearField(_ONE), DelayFeedback(_ONE, 1.0), perturbed_history([0.0], 1.0, 1e-6, 0), v
    ),
    "perturbed_history.delay": lambda v: perturbed_history([0.0], v, 1e-6, 0),
    "perturbed_history.amplitude": lambda v: perturbed_history([0.0], 1.0, v, 0),
    "$.delay": lambda v: _document(delay=v),
    "$.period": lambda v: _document("periodic-linear", period=v),
}
# each input that must be a real array with finite entries, here of shape (1,)
_ARRAY_SITES = {
    "EquilibriumProblem.point": lambda a: EquilibriumProblem(
        LinearField(_ONE), a, DelayFeedback(_ONE, 1.0)
    ),
    "HistorySegment.values": lambda a: HistorySegment(
        np.linspace(-1.0, 0.0, 5), np.ones((5, 1)) * a
    ),
    "perturbed_history.point": lambda a: perturbed_history(a, 1.0, 1e-6, 0),
}


@pytest.mark.parametrize(
    "build, good, bad",
    [
        *[
            pytest.param(build, np.array([[0.5 + 0j]]), bad, id=f"{site}-{label}")
            for site, build in _MATRIX_SITES.items()
            for label, bad in [
                ("complex", np.array([[1.0 + 1e-3j]])),
                ("0x0", np.zeros((0, 0))),
                ("non-square", np.zeros((1, 2))),
                ("nan", np.array([[np.nan]])),
            ]
        ],
        *[
            pytest.param(build, 1.0, bad, id=f"{site}-{bad}")
            for site, build in _SCALAR_SITES.items()
            for bad in (np.nan, np.inf, 0.0, -1.0)
        ],
    ],
)
def test_every_matrix_and_positive_scalar_input_refuses_bad_values(build, good, bad):
    build(good)  # a complex matrix whose imaginary part is zero is real
    with pytest.raises(InputError):
        build(bad)


@pytest.mark.parametrize("build", _ARRAY_SITES.values(), ids=_ARRAY_SITES)
@pytest.mark.parametrize("bad", [0.5j, 1.0 + 2.0j, np.nan, np.inf], ids=str)
def test_every_real_array_input_refuses_bad_values(build, bad):
    build(np.array([0.5 + 0j]))  # an imaginary part of zero is real
    with pytest.raises(InputError):
        build(np.array([bad]))


def test_equilibrium_problem_checks_point_shape():
    field = LinearField(np.eye(2) * -1.0)
    fb = DelayFeedback(np.eye(2), 1.0)
    with pytest.raises(InputError):
        EquilibriumProblem(field, np.zeros(3), fb)
    with pytest.raises(InputError):
        EquilibriumProblem(field, np.array([0.0, np.nan]), fb)


def test_equilibrium_problem_checks_dimension_agreement():
    field = LinearField(np.eye(3) * -1.0)
    fb = DelayFeedback(np.eye(2), 1.0)
    with pytest.raises(InputError):
        EquilibriumProblem(field, np.zeros(3), fb)


def test_equilibrium_jacobian_at_point():
    field = parse_field(("x1 - x1 ^ 3", "-x2"))
    fb = DelayFeedback(np.eye(2) * 0.1, 1.0)
    # x* = (1, 0) is a genuine equilibrium; d/dx1 (x1 - x1^3) = 1 - 3 = -2
    prob = EquilibriumProblem(field, np.array([1.0, 0.0]), fb)
    assert prob.jacobian() == pytest.approx(np.diag([-2.0, -1.0]))
    assert validate_equilibrium(prob) <= 1e-14


def test_validate_equilibrium_reports_residual():
    field = LinearField(np.array([[-1.0]]))
    fb = DelayFeedback(np.array([[0.2]]), 1.0)
    prob = EquilibriumProblem(field, np.array([0.5]), fb)
    assert validate_equilibrium(prob) == pytest.approx(0.5)


def test_periodic_problem_requires_delay_equal_period():
    coeff = ConstantCoefficient(np.eye(2) * 0.1)
    fb = DelayFeedback(np.eye(2) * 0.2, 1.0)
    with pytest.raises(InputError, match="period"):
        PeriodicLinearProblem(coeff, 2.0, fb)
    prob = PeriodicLinearProblem(coeff, 1.0, fb)
    assert prob.dimension == 2
    assert prob.coefficient_at(0.7) == pytest.approx(np.eye(2) * 0.1)


def test_periodic_problem_rejects_aperiodic_coefficient():
    fb = DelayFeedback(np.eye(1) * 0.2, 1.0)
    with pytest.raises(InputError, match="periodic"):
        PeriodicLinearProblem(lambda t: np.array([[t]]), 1.0, fb)


def test_periodic_problem_rejects_shape_mismatch():
    fb = DelayFeedback(np.eye(2) * 0.2, 1.0)
    with pytest.raises(InputError, match="shape"):
        PeriodicLinearProblem(lambda t: np.eye(3), 1.0, fb)


# --- batched coefficient evaluation ---------------------------------------------

_PERIOD = 2.5
_TIMES = st.lists(
    st.floats(-3.0 * _PERIOD, 4.0 * _PERIOD, allow_nan=False), min_size=1, max_size=40
)


def _trig_problem(samples):
    rng = np.random.default_rng(samples)
    coeff = TrigCoefficient(rng.standard_normal((samples, 3, 3)), _PERIOD)
    return PeriodicLinearProblem(coeff, _PERIOD, DelayFeedback(0.2 * np.eye(3), _PERIOD))


def _assert_rows_match(prob, times):
    batch = prob.coefficient_on(np.array(times))
    assert batch.shape == (len(times), prob.dimension, prob.dimension)
    for row, t in zip(batch, times):
        scalar = prob.coefficient_at(t)
        scale = max(1.0, float(np.max(np.abs(scalar))))
        assert np.max(np.abs(row - scalar)) <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(_TIMES)
def test_coefficient_on_matches_scalar_constant(times):
    a = np.array([[0.1, -1.0], [1.0, 0.3]])
    prob = PeriodicLinearProblem(
        ConstantCoefficient(a), _PERIOD, DelayFeedback(0.2 * np.eye(2), _PERIOD)
    )
    _assert_rows_match(prob, times)
    assert np.all(prob.coefficient_on(np.array(times)) == a)


@settings(max_examples=40, deadline=None)
@given(_TIMES, st.sampled_from([1, 2, 7, 8, 15, 16]))
def test_coefficient_on_matches_scalar_trig(times, samples):
    # odd and even sample counts: an even count carries a Nyquist mode
    prob = _trig_problem(samples)
    _assert_rows_match(prob, times)
    # and both agree with the Fourier sum written out directly
    coef = np.fft.rfft(prob.coefficient.samples, axis=0)
    weights = np.full(len(coef), 2.0)
    weights[0] = 1.0
    if samples % 2 == 0 and len(coef) > 1:
        weights[-1] = 1.0
    batch = prob.coefficient_on(np.array(times))
    for row, t in zip(batch, times):
        ref = sum(
            w * c * np.exp(2j * np.pi * k * t / _PERIOD)
            for k, (w, c) in enumerate(zip(weights, coef))
        ).real / samples
        assert np.max(np.abs(row - ref)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_TIMES)
def test_coefficient_on_falls_back_for_plain_callables(times):
    c = np.array([[0.2, 0.5], [-0.4, 0.1]])

    def coeff(t):
        return np.cos(2 * np.pi * t / _PERIOD) * c + np.eye(2)

    prob = PeriodicLinearProblem(coeff, _PERIOD, DelayFeedback(0.2 * np.eye(2), _PERIOD))
    _assert_rows_match(prob, times)
    batch = prob.coefficient_on(np.array(times))
    for row, t in zip(batch, times):
        assert np.array_equal(row, coeff(t))
