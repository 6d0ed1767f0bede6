"""Method-of-steps integrator: closed-form oracles and growth fits.

On the first delay interval the delayed term is a known function of the
prescribed history, so the delayed equation reduces to a linear ODE with
an explicit solution; that gives an exact oracle including the gain
coupling.  Order checks halve dt and expect the classical factor 16.
"""

import contextlib
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrastab.equilibria import Region, find_roots, scalar_characteristic
from pyrastab.errors import InputError
from pyrastab.fields import LinearField, parse_field
from pyrastab.simulate import (
    HistorySegment,
    Trajectory,
    growth_rate,
    integrate,
    perturbed_history,
)
from pyrastab.problems import DelayFeedback


# --- history segments ---------------------------------------------------------


def test_history_from_constant():
    h = HistorySegment.from_constant(np.array([1.0, -2.0]), 3.0)
    assert h.delay == 3.0
    assert h.dimension == 2
    assert h(-1.7) == pytest.approx([1.0, -2.0])
    assert h.final == pytest.approx([1.0, -2.0])


def test_history_from_callable_interpolates():
    h = HistorySegment.from_callable(lambda s: [np.exp(0.3 * s)], 2.0)
    for s in (-1.9, -1.0, -0.25, 0.0):
        assert h(s) == pytest.approx([np.exp(0.3 * s)], abs=1e-9)


def test_history_grid_validation():
    with pytest.raises(InputError):
        HistorySegment(np.array([-1.0, -0.5, 0.0]), np.zeros((3, 1)))  # too few
    with pytest.raises(InputError):
        HistorySegment(
            np.array([-1.0, -0.5, -0.6, 0.0]), np.zeros((4, 1))
        )  # not increasing
    with pytest.raises(InputError):
        HistorySegment(
            np.array([-1.0, -0.5, -0.2, 0.1]), np.zeros((4, 1))
        )  # must end at 0


@st.composite
def _history_samples(draw):
    # uniform grids of 4 to 200 points, or grids whose largest gap is at
    # most 5 times their smallest; values of magnitude 1e-8 to 1e3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    delay = draw(st.floats(1e-2, 1e2))
    m = draw(st.integers(4, 200))
    if draw(st.booleans()):
        grid = np.linspace(-delay, 0.0, m)
    else:
        ends = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 5.0, m - 1))])
        grid = delay * (ends / ends[-1]) - delay
    scale = 10.0 ** draw(st.floats(-8.0, 3.0))
    return grid, scale * rng.uniform(-1.0, 1.0, (m, n)), rng


@settings(max_examples=150, deadline=None)
@given(_history_samples())
def test_history_is_the_not_a_knot_spline(drawn):
    # scipy's CubicSpline, whose default end condition is not-a-knot, is the
    # oracle; the history evaluates the same spline in Hermite form
    grid, values, rng = drawn
    hist = HistorySegment(grid, values)
    oracle = scipy.interpolate.CubicSpline(grid, values, axis=0)
    s = np.concatenate([rng.uniform(grid[0], 0.0, 64), 0.5 * (grid[:-1] + grid[1:])])
    got = hist(s)
    assert got.shape == (s.size, values.shape[1])
    assert np.max(np.abs(got - oracle(s))) <= 1e-13 * np.max(np.abs(values))
    assert np.array_equal(hist(grid), values)  # knot values are exact
    assert hist(float(s[0])).shape == (values.shape[1],)
    assert np.array_equal(hist(float(s[0])), got[0])


def test_history_refuses_non_finite_times():
    hist = HistorySegment.from_constant(np.ones(2), 1.0)
    for bad in (float("nan"), float("inf"), -float("inf"), [-0.5, float("nan")]):
        with pytest.raises(InputError, match="outside"):
            hist(bad)


def test_history_from_callable_refuses_a_non_integer_sample_count():
    for bad in (5.0, "9", True, 3, -1):
        with pytest.raises(InputError, match="samples"):
            HistorySegment.from_callable(lambda s: [s], 1.0, samples=bad)
    assert HistorySegment.from_callable(lambda s: [s], 1.0, samples=np.int64(5)).grid.size == 5


def test_perturbed_history_is_seeded_and_bounded():
    a = perturbed_history(np.zeros(2), 1.0, amplitude=1e-6, seed=42)
    b = perturbed_history(np.zeros(2), 1.0, amplitude=1e-6, seed=42)
    c = perturbed_history(np.zeros(2), 1.0, amplitude=1e-6, seed=43)
    ss = np.linspace(-1.0, 0.0, 7)
    for s in ss:
        assert a(s) == pytest.approx(b(s))
        assert np.max(np.abs(a(s))) <= 1e-6 + 1e-12
    assert any(np.max(np.abs(a(s) - c(s))) > 0 for s in ss)


def test_perturbed_history_refuses_an_amplitude_it_cannot_draw():
    # 1e308 is finite, but the width 2e308 of its uniform range is not; NaN
    # and inf are among the bad values of every positive scalar input in
    # test_problems.py
    with pytest.raises(InputError, match="amplitude"):
        perturbed_history([0.0], 1.0, 1e308, 0)


# --- integration oracles ---------------------------------------------------------


def test_equilibrium_stays_put():
    field = LinearField(np.array([[-1.0]]))
    fb = DelayFeedback(np.array([[0.5]]), 1.0)
    hist = HistorySegment.from_constant(np.zeros(1), 1.0)
    traj = integrate(field, fb, hist, 10.0)
    assert np.max(np.abs(traj.states)) == 0.0
    assert traj.blown_at is None


def test_exponential_without_feedback():
    a = -0.4
    field = LinearField(np.array([[a]]))
    fb = DelayFeedback(np.zeros((1, 1)), 1.0)
    hist = HistorySegment.from_callable(lambda s: [np.exp(a * s)], 1.0)
    traj = integrate(field, fb, hist, 5.0, dt=1.0 / 64)
    expect = np.exp(a * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expect)) < 1e-11


def _first_interval_setup(dt):
    # x' = a x + k [x - h(t - T)] with history h(s) = e^{b s}:
    # on [0, T] this is x' = (a + k) x - k e^{-bT} e^{bt}, solved by
    # x = (1 - c) e^{(a+k) t} + c e^{b t},  c = k e^{-bT} / (a + k - b)
    a, k, b, period = 0.05, 0.3, 0.2, 2.0
    field = LinearField(np.array([[a]]))
    fb = DelayFeedback(np.array([[k]]), period)
    hist = HistorySegment.from_callable(lambda s: [np.exp(b * s)], period)
    traj = integrate(field, fb, hist, period, dt=dt)
    c = k * np.exp(-b * period) / (a + k - b)
    expect = (1 - c) * np.exp((a + k) * traj.times) + c * np.exp(b * traj.times)
    return traj, expect


def test_first_interval_closed_form():
    traj, expect = _first_interval_setup(dt=2.0 / 128)
    assert np.max(np.abs(traj.states[:, 0] - expect)) < 1e-10


def test_fourth_order_convergence():
    errs = []
    for dt in (2.0 / 64, 2.0 / 128):
        traj, expect = _first_interval_setup(dt)
        errs.append(abs(traj.states[-1, 0] - expect[-1]))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)


def test_dense_output_between_nodes():
    traj, _ = _first_interval_setup(dt=2.0 / 128)
    a, k, b, period = 0.05, 0.3, 0.2, 2.0
    c = k * np.exp(-b * period) / (a + k - b)
    rng = np.random.default_rng(17)
    for t in rng.uniform(0.0, 2.0, 25):
        got = traj.sample(float(t))
        expect = (1 - c) * np.exp((a + k) * t) + c * np.exp(b * t)
        assert got[0] == pytest.approx(expect, abs=1e-10)


def test_delay_mode_continues_exactly():
    # a characteristic-root mode e^{lambda t} is a global solution; feeding
    # it as history must continue it (checked for the dominant real root
    # and for a decaying oscillatory pair root)
    a, k, period = 0.05, 0.3, 2.0
    field = LinearField(np.array([[a]]))
    fb = DelayFeedback(np.array([[k]]), period)
    rep = find_roots(scalar_characteristic(a, k, period), Region(-2.0, 1.0, 12.0))
    reals = [r.value for r in rep.all_roots if abs(r.value.imag) < 1e-12]
    complexes = [r.value for r in rep.all_roots if r.value.imag > 1e-6]
    assert reals and complexes
    t_end = 3 * period
    for lam in (max(reals, key=lambda z: z.real), complexes[0]):
        hist = HistorySegment.from_callable(
            lambda s: [np.exp(lam * s).real], period, samples=257
        )
        traj = integrate(field, fb, hist, t_end, dt=period / 512)
        expect = np.exp(lam * t_end).real
        assert traj.states[-1, 0] == pytest.approx(expect, abs=1e-6)


def test_blow_up_truncates_with_flag():
    field = LinearField(np.array([[2.0]]))
    fb = DelayFeedback(np.zeros((1, 1)), 1.0)
    hist = HistorySegment.from_constant(np.ones(1), 1.0)
    traj = integrate(field, fb, hist, 100.0, dt=0.05, blow_up=1e6)
    assert traj.blown_at is not None
    assert traj.times[-1] < 100.0
    assert np.all(np.isfinite(traj.states))


def test_integrate_rejects_non_finite_t_end():
    field = LinearField(np.array([[-1.0]]))
    fb = DelayFeedback(np.array([[0.5]]), 1.0)
    hist = HistorySegment.from_constant(np.ones(1), 1.0)
    for t_end in (float("inf"), float("nan"), -1.0):
        with pytest.raises(InputError):
            integrate(field, fb, hist, t_end)


def test_linear_field_must_match_the_gain():
    # a 1 x 1 matrix would broadcast against a 2 x 2 gain in the step maps
    fb = DelayFeedback(np.eye(2), 1.0)
    hist = HistorySegment.from_constant(np.ones(2), 1.0)
    with pytest.raises(InputError):
        integrate(LinearField(np.array([[-1.0]])), fb, hist, 2.0)


@pytest.mark.parametrize("field", [LinearField(np.array([[0.05]])), parse_field(("0.05 * x1",))],
                         ids=["linear", "expression"])
def test_a_run_reads_the_history_twice(field):
    # once on the step grid before t = 0 and once at its interval midpoints,
    # however many steps read them; the run crosses three delay intervals
    fb = DelayFeedback(np.array([[0.3]]), 1.0)
    hist = perturbed_history(np.zeros(1), 1.0, 1e-6, seed=2)
    calls = []
    original = HistorySegment.__call__

    def counted(self, s):
        calls.append(np.shape(s))
        return original(self, s)

    with mock.patch.object(HistorySegment, "__call__", counted):
        traj = integrate(field, fb, hist, 3.0)
    assert len(traj) == 193 and traj.blown_at is None
    assert calls == [(64,), (64,)]


# --- the affine interval march against the stage loop ------------------------------
#
# A plain callable runs the generic stage loop; the same matrix as a
# LinearField runs the affine interval march.  Both must take the same RK4
# steps and stop at the same step.


@contextlib.contextmanager
def _field_calls():
    # records every LinearField call; the affine march makes none
    calls = []
    original = LinearField.__call__

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    with mock.patch.object(LinearField, "__call__", counted):
        yield calls


@st.composite
def _linear_runs(draw):
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delay = draw(st.floats(0.5, 8.0))
    dt = delay / draw(st.floats(2.0, 40.0))  # need not divide the delay
    t_end = delay * draw(st.floats(0.05, 4.5))  # may end inside the first interval
    h = delay / np.ceil(delay / dt - 1e-12)
    gain = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-1.0, 0.5)
    regime = draw(st.sampled_from(["moderate", "finite-first", "non-finite"]))
    blow_up = 1e9
    if regime == "moderate":
        # blow-ups, if any, are finite and fall anywhere in the run
        matrix = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-1.0, 1.0)
        blow_up = 10.0 ** rng.uniform(1.0, 9.0)
        hist = perturbed_history(np.zeros(n), delay, 10.0 ** rng.uniform(-6.0, 0.0),
                                 seed=int(rng.integers(1000)))
        return matrix, gain, hist, t_end, dt, blow_up, regime
    # A = s I + O(1): one step multiplies the state by about (h s)^4 / 24
    power = draw(st.floats(20.0, 200.0)) if regime == "finite-first" else 303.0
    s = (24.0 * 10.0**power) ** 0.25 / h
    matrix = s * np.eye(n) + rng.normal(size=(n, n))
    signs = rng.choice([-1.0, 1.0], n)
    if regime == "finite-first":
        point = signs * rng.uniform(0.1, 1.0, n)
    elif draw(st.booleans()):
        # 1e309 and more after the first step: non-finite at once
        point = signs * 10.0 ** rng.uniform(6.0, 8.0, n)
    else:
        # 1e6..1e8 after the first step, below the limit 1e9; non-finite after the second
        point = signs * 10.0 ** rng.uniform(-297.0, -295.0, n)
    hist = HistorySegment.from_constant(point, delay)
    return matrix, gain, hist, t_end, dt, blow_up, regime


@settings(max_examples=80, deadline=None)
@given(_linear_runs())
def test_affine_march_matches_stage_loop(run):
    matrix, gain, hist, t_end, dt, blow_up, regime = run
    fb = DelayFeedback(gain, hist.delay)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the stage loop's overflow
        ref = integrate(lambda x: matrix @ x, fb, hist, t_end, dt=dt, blow_up=blow_up)
    with _field_calls() as calls:
        got = integrate(LinearField(matrix), fb, hist, t_end, dt=dt, blow_up=blow_up)
    # a moderate march takes the affine march; one that grows by 1e20 or
    # more per step may overflow a doubling level and take the stage loop
    assert calls == [] or regime != "moderate"
    assert len(got) == len(ref)
    assert got.blown_at == ref.blown_at
    assert np.array_equal(got.times, ref.times)
    for a, b in ((got.states, ref.states), (got.derivs, ref.derivs)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_affine_march_stops_where_the_stage_loop_does():
    # pinned instances of each stop rule, so a regression does not depend on
    # the draws above: finite mid-run, finite on the first step, non-finite
    # on the first and on the second step
    fb = DelayFeedback(np.array([[0.3]]), 1.0)
    h = 1.0 / 64
    big = (24.0 * 1e303) ** 0.25 / h
    cases = [
        (np.array([[2.0]]), np.ones(1), 1e3, False),
        (np.array([[1e6]]), np.ones(1), 1e9, False),
        (np.array([[big]]), np.array([1e7]), 1e9, True),
        (np.array([[big]]), np.array([1e-296]), 1e9, True),
    ]
    stops = []
    for matrix, point, blow_up, non_finite in cases:
        hist = HistorySegment.from_constant(point, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = integrate(lambda x: matrix @ x, fb, hist, 10.0, blow_up=blow_up)
        got = integrate(LinearField(matrix), fb, hist, 10.0, blow_up=blow_up)
        assert (len(got), got.blown_at) == (len(ref), ref.blown_at)
        assert np.all(np.isfinite(got.states))
        # the non-finite step is dropped: blown_at is one step past the end
        assert (got.blown_at > got.times[-1] + 0.5 * h) == non_finite
        stops.append(len(got) - 1)
    assert stops[1] == 1 and stops[2] == 0 and stops[3] == 1
    assert stops[0] > 64  # past the first delay interval


def test_linear_field_run_makes_no_field_call():
    fb = DelayFeedback(np.array([[0.3]]), 1.0)
    hist = perturbed_history(np.zeros(1), 1.0, 1e-6, seed=1)
    with _field_calls() as calls:
        traj = integrate(LinearField(np.array([[0.05]])), fb, hist, 10.0)
    assert len(traj) == 641
    assert calls == []


def test_affine_march_matches_stage_loop_over_a_long_run():
    # 400 delays of a slowly growing 3-dim focus: the scan carries each
    # interval's start state across 64 steps, 400 times over
    a = np.array([[-0.6, -1.0, 0.0], [1.0, -0.6, 0.5], [0.0, -0.3, -0.4]])
    gain = np.array([[0.3, 0.1, 0.0], [0.0, 0.3, 0.0], [0.2, 0.0, 0.2]])
    fb = DelayFeedback(gain, 2.0)
    hist = perturbed_history(np.zeros(3), 2.0, amplitude=1e-3, seed=4)
    ref = integrate(lambda x: a @ x, fb, hist, 800.0)
    got = integrate(LinearField(a), fb, hist, 800.0)
    assert len(got) == len(ref) == 25601
    assert got.blown_at is None and ref.blown_at is None
    assert np.max(np.abs(ref.states[-64:])) > 1e4 * np.max(np.abs(ref.states[:64]))
    for x, y in ((got.states, ref.states), (got.derivs, ref.derivs)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_overflowing_doubling_maps_fall_back_to_the_stage_loop():
    # (I + D)^32 - I overflows for A = 1e6 at h = 1/64 while the step maps
    # stay finite: the stage loop runs, and keeps the resting zero state at
    # exactly zero where inf * 0 in a doubling level would give nan
    fb = DelayFeedback(np.array([[0.3]]), 1.0)
    hist = HistorySegment.from_constant(np.zeros(1), 1.0)
    with _field_calls() as calls:
        traj = integrate(LinearField(np.array([[1e6]])), fb, hist, 2.0)
    assert len(calls) == 4 * 128 + 1  # four field calls per step, one at the start
    assert traj.blown_at is None and len(traj) == 129
    assert np.all(traj.states == 0.0) and np.all(traj.derivs == 0.0)


def test_overflowing_step_maps_fall_back_to_the_stage_loop():
    # with (h A)^4 beyond the double range the step maps hold inf, and
    # inf * 0 would turn a resting zero state into nan; the stage loop keeps
    # it at exactly zero
    field = LinearField(np.array([[1e200]]))
    fb = DelayFeedback(np.array([[0.3]]), 1.0)
    hist = HistorySegment.from_constant(np.zeros(1), 1.0)
    traj = integrate(field, fb, hist, 2.0)
    assert traj.blown_at is None
    assert np.all(traj.states == 0.0)


# --- trajectories and growth fits ---------------------------------------------------


def test_trajectory_sample_refuses_non_finite_times():
    traj = Trajectory(np.linspace(0.0, 1.0, 5), np.ones((5, 2)), np.zeros((5, 2)))
    for bad in (float("nan"), float("inf"), [0.5, float("nan")]):
        with pytest.raises(InputError, match="outside"):
            traj.sample(bad)


def test_trajectory_deviations_use_reference():
    times = np.linspace(0.0, 1.0, 5)
    states = np.ones((5, 2))
    derivs = np.zeros((5, 2))
    traj = Trajectory(times, states, derivs)
    dev = traj.deviations(np.array([1.0, 0.0]))
    assert dev == pytest.approx(np.ones(5))


def test_growth_rate_recovers_synthetic_slope():
    times = np.linspace(0.0, 40.0, 801)
    lam = 0.05
    states = np.exp(lam * times)[:, None]
    derivs = lam * states
    traj = Trajectory(times, states, derivs)
    assert growth_rate(traj, window=10.0) == pytest.approx(lam, abs=1e-12)


def test_growth_rate_constant_trajectory_is_zero():
    times = np.linspace(0.0, 30.0, 301)
    traj = Trajectory(times, np.ones((301, 1)), np.zeros((301, 1)))
    assert growth_rate(traj, window=5.0) == 0.0


def test_growth_rate_underflow_is_minus_infinity():
    times = np.linspace(0.0, 30.0, 301)
    states = np.exp(-50.0 * times)[:, None]
    traj = Trajectory(times, states, -50.0 * states)
    assert growth_rate(traj, window=5.0) == float("-inf")


def test_growth_rate_needs_enough_span():
    times = np.linspace(0.0, 10.0, 101)
    traj = Trajectory(times, np.ones((101, 1)), np.zeros((101, 1)))
    with pytest.raises(InputError):
        growth_rate(traj, window=6.0)


def test_growth_rate_needs_two_tail_samples():
    # a run that blows up on its first step has two points; a tail of one
    # sample has no slope, and polyfit would return an arbitrary one
    field = LinearField(np.array([[1e12]]))
    fb = DelayFeedback(np.array([[0.1]]), 1.0)
    hist = perturbed_history(np.zeros(1), 1.0, 1e-6, seed=0)
    traj = integrate(field, fb, hist, 40.0)
    assert len(traj) == 2 and traj.blown_at is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            growth_rate(traj, window=traj.times[-1] / 3.0)


def test_growth_rate_matches_dominant_root():
    a, k, period = 0.05, 0.3, 2.0
    field = LinearField(np.array([[a]]))
    fb = DelayFeedback(np.array([[k]]), period)
    hist = perturbed_history(np.zeros(1), period, 1e-6, seed=3)
    traj = integrate(field, fb, hist, 40 * period, dt=period / 64)
    rate = growth_rate(traj, window=(traj.times[-1] - traj.times[0]) / 3)
    rep = find_roots(scalar_characteristic(a, k, period))
    assert rate == pytest.approx(rep.dominant.value.real, rel=1e-3)


def test_growth_rate_stable_field_is_negative():
    field = parse_field(("-x1",))
    fb = DelayFeedback(np.zeros((1, 1)), 1.0)
    hist = perturbed_history(np.zeros(1), 1.0, 1e-6, seed=5)
    traj = integrate(field, fb, hist, 40.0)
    rate = growth_rate(traj, window=10.0)
    assert rate == pytest.approx(-1.0, rel=1e-6)


def test_nonlinear_saturation():
    # the cubic term caps the blow-up: trajectory stays bounded near the
    # stable branch amplitude sqrt(a)
    field = parse_field(("0.05 * x1 - x1 ^ 3",))
    fb = DelayFeedback(np.zeros((1, 1)), 1.0)
    hist = HistorySegment.from_constant(np.array([1e-3]), 1.0)
    traj = integrate(field, fb, hist, 400.0, dt=0.05)
    assert traj.blown_at is None
    assert traj.states[-1, 0] == pytest.approx(np.sqrt(0.05), rel=1e-6)
