"""Vector-field wrappers: evaluation, Jacobians, periodic coefficients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrastab.errors import InputError
from pyrastab.expressions import DomainError
from pyrastab.fields import (
    ConstantCoefficient,
    LinearField,
    TrigCoefficient,
    parse_field,
)


def test_parse_field_evaluates_componentwise():
    f = parse_field(("x2", "-sin(x1) - b * x2"), params={"b": 0.25})
    x = np.array([0.4, -1.2])
    out = f(x)
    assert out == pytest.approx([-1.2, -np.sin(0.4) + 0.25 * 1.2])
    assert f.dimension == 2
    # sources are reported in the printer's canonical spelling
    assert f.source_strings() == ("x2", "-sin(x1) - b*x2")
    assert f.param_map == {"b": 0.25}


def test_parse_field_rejects_unknown_names():
    with pytest.raises(Exception) as info:
        parse_field(("x1 + y",))
    assert "y" in str(info.value)


@pytest.mark.parametrize(
    "sources, params",
    [
        (("x1 * 2",), {"x1": 5.0}),  # would be read as the variable
        (("x3 + x1",), {"x3": 5.0}),  # would be out of range
        (("x1",), {"sin": 1.0}),
    ],
)
def test_parse_field_refuses_parameters_named_like_variables_or_functions(sources, params):
    (name,) = params
    with pytest.raises(InputError, match=rf"^params\.{name}: "):
        parse_field(sources, params)


def test_expression_jacobian_matches_differences():
    rng = np.random.default_rng(91)
    f = parse_field(
        ("x2 + a * sin(x1)", "x1 * x2 - x3 ^ 2", "cos(x1) - tanh(x3)"),
        params={"a": 0.8},
    )
    for _ in range(25):
        x = rng.uniform(-1.0, 1.0, size=3)
        jac = f.jacobian(x)
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (f(xp) - f(xm)) / (2 * h)
            assert jac[:, i] == pytest.approx(col, rel=1e-7, abs=1e-8)


def test_expression_field_domain_error_propagates():
    f = parse_field(("log(x1)",))
    with pytest.raises(DomainError):
        f(np.array([-1.0]))


def test_linear_field():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = LinearField(a)
    x = np.array([2.0, 3.0])
    assert f(x) == pytest.approx(a @ x)
    assert f.jacobian(x) == pytest.approx(a)
    assert f.jacobian(10 * x) == pytest.approx(a)  # state independent


def test_linear_field_validates_shape():
    with pytest.raises(InputError):
        LinearField(np.zeros((2, 3)))
    with pytest.raises(InputError):
        LinearField(np.array([[np.nan]]))


def test_constant_coefficient_is_constant():
    c = ConstantCoefficient(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert c(0.0) == pytest.approx(c(17.3))
    assert c.dimension == 2


def test_trig_coefficient_reproduces_trig_polynomial():
    # sampling a low-order trig polynomial on a uniform grid reconstructs
    # it exactly (up to roundoff) at arbitrary times
    period = 2 * np.pi
    def a(t):
        return np.array(
            [
                [0.3 + np.cos(t), 0.5 * np.sin(2 * t)],
                [-np.sin(t), 0.1 - 0.2 * np.cos(3 * t)],
            ]
        )

    m = 64
    ts = np.linspace(0.0, period, m, endpoint=False)
    samples = np.array([a(t) for t in ts])
    coeff = TrigCoefficient(samples, period)
    rng = np.random.default_rng(3)
    for t in rng.uniform(-5.0, 15.0, size=20):
        assert coeff(float(t)) == pytest.approx(a(t), abs=1e-12)


def test_trig_coefficient_is_periodic():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((16, 2, 2))
    period = 3.0
    coeff = TrigCoefficient(samples, period)
    for t in (0.0, 0.37, 1.9):
        assert coeff(t) == pytest.approx(coeff(t + period), abs=1e-12)
        assert coeff(t) == pytest.approx(coeff(t - 2 * period), abs=1e-12)


def test_trig_coefficient_validates_input():
    with pytest.raises(InputError):
        TrigCoefficient(np.zeros((0, 2, 2)), 1.0)
    with pytest.raises(InputError):
        TrigCoefficient(np.full((4, 2, 2), np.inf), 1.0)
    with pytest.raises(InputError):
        TrigCoefficient(np.zeros((4, 2, 3)), 1.0)


def _direct_batch(coeff, times):
    """The one-level phase table from the public samples alone: its own
    transform, its own weights (1 at k = 0 and at an even m's Nyquist mode,
    2 elsewhere), one exp per (time, mode)."""
    times = np.asarray(times, dtype=float)
    m, n = coeff.samples.shape[:2]
    coef = np.fft.rfft(coeff.samples.reshape(m, n * n), axis=0)
    k = np.arange(len(coef))
    weights = np.where((k == 0) | (2 * k == m), 1.0, 2.0)
    phase = weights * np.exp(2j * np.pi * k * (times[:, None] / coeff.period))
    return (phase @ coef).real.reshape(len(times), n, n) / m


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-3.0, 4.0), max_size=40),
    st.lists(st.integers(0, 39), max_size=5),
)
@example(1, 2, False, 0, [0.3, -2.9], [0])
@example(2, 1, False, 1, [3.99, 0.5], [1])
@example(3, 3, True, 2, [-3.0, 4.0], [])
@example(4, 2, False, 3, [1.0, 1.0], [0])
@example(6, 2, False, 7, [0.4, -2.2, 3.7], [1])  # 4 = 2 x 2 modes: no padding
@example(64, 2, True, 4, [0.25, -1.7, 3.3], [2])
@example(256, 2, False, 5, [-3.0, 3.9, 0.0], [1])  # 129 modes padded to 12 x 11
@example(256, 1, False, 6, [], [])
def test_trig_batch_matches_one_level_phase_table(m, n, smooth, seed, fractions, repeats):
    rng = np.random.default_rng(seed)
    period = float(rng.uniform(0.5, 7.0))
    if smooth:
        # a trigonometric polynomial of degree <= 3, as the catalog samples
        t = np.arange(m) * (2 * np.pi / m)
        harm = np.stack([np.cos(j * t + rng.uniform(0, 6)) for j in range(4)], axis=1)
        samples = harm @ rng.uniform(-1.0, 1.0, (4, n * n))
    else:
        samples = rng.uniform(-1.0, 1.0, (m, n * n)) * 10.0 ** rng.uniform(-3, 3)
    coeff = TrigCoefficient(samples.reshape(m, n, n), period)
    times = period * np.array(fractions + [fractions[j % len(fractions)] for j in repeats
                                           if fractions])
    got = coeff.batch(times)
    ref = _direct_batch(coeff, times)
    assert got.shape == ref.shape == (len(times), n, n)
    # Both tables round each angle 2 pi k t / period to about eps of it, so a
    # mode's phases may differ by 2 eps times its angle.  With Cauchy-Schwarz
    # and Parseval the weighted coefficient sum is at most sqrt(2 modes)
    # max |samples|: far out in time, many-mode samples agree to that, not to
    # a flat 1e-14, however the table is built.
    modes = m // 2 + 1
    angle = 2 * np.pi * (modes - 1) * np.max(np.abs(times), initial=0.0) / period
    scale = max(1.0, np.max(np.abs(samples)))
    tol = scale * (1e-14 + 4 * np.finfo(float).eps * np.sqrt(modes) * angle)
    assert np.max(np.abs(got - ref), initial=0.0) <= tol



@pytest.mark.parametrize(
    "m, intervals",
    [
        (9, 64),   # odd sample count
        (8, 64),   # even: the Nyquist mode at its cosine representative
        (12, 4),   # 7 modes on 4 intervals: modes fold past the grid's Nyquist
        (11, 5),   # folding onto an odd grid
    ],
)
def test_trig_on_grid_matches_batch(m, intervals):
    rng = np.random.default_rng(m * 100 + 10 + intervals)
    samples = rng.uniform(-1.0, 1.0, (m, 2, 2))
    period = 2.7
    coeff = TrigCoefficient(samples, period)
    got = coeff.on_grid(intervals)
    ref = coeff.batch(np.arange(intervals + 1) * (period / intervals))
    assert got.shape == ref.shape == (intervals + 1, 2, 2)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_trig_on_grid_reproduces_the_samples():
    # on the samples' own grid the interpolant is the samples themselves
    rng = np.random.default_rng(5)
    samples = rng.uniform(-1.0, 1.0, (256, 2, 2))
    got = TrigCoefficient(samples, 2.0).on_grid(256)
    assert np.max(np.abs(got[:-1] - samples)) <= 1e-15 * np.max(np.abs(samples))
    assert np.array_equal(got[-1], got[0])
