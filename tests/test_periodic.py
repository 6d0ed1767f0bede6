"""Monodromy operators, Floquet structure, and periodic exclusion rules.

Oracles: constant and commuting coefficient families have closed-form
monodromies via the matrix exponential; a genuinely time-dependent
benchmark with known Floquet form is built by conjugating a constant
generator with an explicit periodic similarity.  ``multipliers`` is also
compared with the clustering loop and per-cluster sorted Schur forms it
replaced, kept here as ``_former_multipliers`` and fed the spectrum of its
own Schur form.
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pyrastab import periodic
from pyrastab.benchmarks import get_case
from pyrastab.chebyshev import lobatto_nodes
from pyrastab.equilibria import (
    Region,
    common_eigenpair,
    find_roots,
    scalar_characteristic,
)
from pyrastab.errors import (
    CrossCheckError,
    InconclusiveMultiplicityError,
    InputError,
    NumericalError,
)
from pyrastab.fields import ConstantCoefficient, TrigCoefficient
from pyrastab.linalg import cluster_multiplicity, schur_complement, spectral_norm
from pyrastab.periodic import (
    check_determining_invariance,
    dde_monodromy,
    floquet_decompose,
    multipliers,
    ode_monodromy,
    periodic_verdicts,
)
from pyrastab.problems import DelayFeedback, PeriodicLinearProblem
from pyrastab.tolerances import DEFAULT
from test_linalg import sorted_schur_multiplicity


_PERIODIC_CASES = ("center-periodic", "orbit-unstable", "orbit-neutral", "diag-periodic",
                   "trig-periodic")


def _periodic(coeff, period, gain):
    return PeriodicLinearProblem(coeff, period, DelayFeedback(gain, period))


def _floored(floor):
    """Tolerances whose multiplier floor is ``floor`` (None: the default)."""
    return DEFAULT if floor is None else DEFAULT.replace(mu_floor=floor)


def _scalar_problem(rate=0.05, gain=0.3, period=2 * np.pi):
    return _periodic(
        ConstantCoefficient(np.array([[rate]])), period, np.array([[gain]])
    )


# --- ODE monodromy -------------------------------------------------------------


def test_ode_monodromy_scalar_closed_form():
    # x' = (a0 + a1 cos(2 pi t / T)) x  =>  Y(T) = exp(a0 T)
    a0, a1, period = 0.2, 0.7, 3.0

    def coeff(t):
        return np.array([[a0 + a1 * np.cos(2 * np.pi * t / period)]])

    prob = _periodic(coeff, period, np.array([[0.1]]))
    mono = ode_monodromy(prob)
    assert mono.matrix[0, 0] == pytest.approx(np.exp(a0 * period), rel=1e-12)
    assert mono.error_estimate < 1e-10


def test_ode_monodromy_commuting_family():
    # A(t) = f(t) C with scalar f: Y(T) = expm(C * integral of f)
    c = np.array([[0.1, 0.4], [-0.3, -0.2]])
    period = 2 * np.pi

    def coeff(t):
        return (1.0 + np.cos(t)) * c

    prob = _periodic(coeff, period, 0.2 * np.eye(2))
    mono = ode_monodromy(prob)
    expect = scipy.linalg.expm(c * period)  # integral of 1 + cos over a period
    assert np.max(np.abs(mono.matrix - expect)) < 1e-11


def test_ode_monodromy_value_at_wraps_periods():
    prob = _scalar_problem(rate=0.1, period=2.0)
    mono = ode_monodromy(prob)
    # Y(t + T) = Y(t) Y(T) for the fundamental solution of a periodic system
    t = 0.7
    lhs = mono.value_at(t + 2.0)
    rhs = mono.value_at(t) @ mono.matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _value_at_one_time(mono, t):
    """Y(t) by the per-time rule ``value_at`` applied before it was batched:
    t = q T + r, r just below T wrapped to the next period, one RK4 step from
    the grid point at or before an off-grid r, then Y(T)^q."""
    q, r = divmod(t, mono.period)
    q = int(q)
    if r > mono.period * (1.0 - 1e-13):
        r, q = 0.0, q + 1
    idx = int(periodic._grid_before(mono.times, r))
    y = mono.values[idx]
    if r - mono.times[idx] > 1e-13 * mono.period:
        y = periodic._step_to(mono.problem, mono.times[idx : idx + 1], mono.values[idx : idx + 1],
                              np.array([r]))[0][0]
    return y @ np.linalg.matrix_power(mono.matrix, q) if q else y


@pytest.mark.parametrize("name", _PERIODIC_CASES)
def test_batched_values_match_value_at_one_time_at_a_time(name):
    # the commuting samples of one period, and times beyond it on the grid,
    # off it and just below a whole period, by one batched rule, by value_at
    # and by the per-time rule; and the periodic factors from them
    prob = get_case(name).problem()
    mono = ode_monodromy(prob)
    dec = floquet_decompose(mono)
    period = prob.period
    samples = np.linspace(0.0, period, periodic._COMMUTING_SAMPLES)
    beyond = [0.5 * period, 1.5 * period, 2.5 * period, 0.3 * period, 1.3 * period,
              2.7 * period, period * (1.0 - 1e-14), 2.0 * period * (1.0 - 1e-14), 0.0]
    for times in (samples, beyond):
        ys = np.stack([_value_at_one_time(mono, t) for t in times])
        assert np.array_equal(mono._values_at(times), ys)
        assert np.array_equal(np.stack([mono.value_at(t) for t in times]), ys)
        expect = ys @ scipy.linalg.expm(-dec.generator * np.array(times)[:, None, None])
        assert np.array_equal(dec._periodic_factors(times), expect)


@pytest.mark.filterwarnings("error")
def test_fundamental_solution_rejects_non_finite_and_overflowing_times():
    mono = ode_monodromy(get_case("orbit-neutral").problem())
    dec = floquet_decompose(mono)
    for value in (mono.value_at, dec.periodic_factor, dec.exponential_factor):
        for t in (np.inf, np.nan):
            with pytest.raises(InputError, match="finite"):
                value(t)
        with pytest.raises(NumericalError, match="overflows"):
            value(1e300)
    with pytest.raises(NumericalError, match="overflows"):
        dec.exponential_factor(-1e300)


def test_fundamental_solution_refuses_times_that_compound_its_error():
    # Y(t) is a rotation here, but Y(T)^q far out compounds the rounding
    # of Y(T): norm 0.82 at t = 1e14 and the zero matrix at 1e18
    prob = get_case("center-periodic").problem()
    mono = ode_monodromy(prob)
    dec = floquet_decompose(mono)
    for t in (1e14, 1e18):
        for value in (mono.value_at, dec.periodic_factor):
            with pytest.raises(NumericalError, match="compounds"):
                value(t)
    for t in np.linspace(0.0, 5.0 * prob.period, 23):
        y = mono.value_at(float(t))
        assert abs(np.linalg.norm(y, 2) - 1.0) < 1e-9


def test_coarse_monodromy_still_answers_within_two_periods():
    # 16 steps leave error_estimate ~3e-5, far above tol_log, but within two
    # periods Y(T) is used at most once, so nothing compounds: value_at and
    # the commuting verdicts must still answer
    prob = get_case("orbit-unstable").problem()
    mono = ode_monodromy(prob, steps=16)
    assert mono.error_estimate > DEFAULT.tol_log
    assert np.array_equal(mono.value_at(prob.period), mono.matrix)
    assert np.all(np.isfinite(mono.value_at(1.5 * prob.period)))
    with pytest.raises(NumericalError, match="compounds"):
        mono.value_at(2.5 * prob.period)
    hyps = [
        h for v in periodic_verdicts(mono) for h in v.hypotheses
        if h.name.startswith("gain commutes")
    ]
    assert len(hyps) == 4
    assert all(h.passed and "unavailable" not in h.detail for h in hyps)


def test_constructed_orbit_monodromy_is_exponential():
    # benchmark built as A(t) = cos(t) S + P(t) B P(t)^-1: Y(T) = expm(B T)
    prob = get_case("orbit-unstable").problem()
    mono = ode_monodromy(prob)
    expect = scipy.linalg.expm(np.diag([0.1, -0.2]) * 2 * np.pi)
    assert np.max(np.abs(mono.matrix - expect)) < 1e-9


def _stage_loop(afun, rfun, times, y0):
    """Textbook RK4 for Y' = A(t) Y + R(t), one step at a time, every value kept."""
    out = [y0]
    y = y0
    for t, t_next in zip(times[:-1], times[1:]):
        h = t_next - t
        a1, a2, a4 = afun(t), afun(t + 0.5 * h), afun(t + h)
        r1, r2, r4 = rfun(t), rfun(t + 0.5 * h), rfun(t + h)
        k1 = a1 @ y + r1
        k2 = a2 @ (y + 0.5 * h * k1) + r2
        k3 = a2 @ (y + 0.5 * h * k2) + r2
        k4 = a4 @ (y + h * k3) + r4
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def test_ode_monodromy_rejects_odd_steps():
    with pytest.raises(InputError, match="even"):
        ode_monodromy(_scalar_problem(), steps=65)


def test_ode_monodromy_coarse_march_samples_nothing_new():
    # the Richardson march runs on every other grid point, its midpoints
    # the odd grid points: 2 steps + 1 coefficient samples in all
    calls = []
    coeff = get_case("trig-periodic").problem().coefficient

    def counted(t):
        calls.append(t)
        return coeff(t)

    prob = _periodic(counted, 2 * np.pi, np.eye(2))
    calls.clear()
    mono = ode_monodromy(prob, steps=64)
    assert len(calls) == 129
    # the same estimate as from a separate march of 32 steps, up to rounding
    coarse = ode_monodromy(prob, steps=32).matrix
    scale = max(1.0, np.linalg.norm(mono.matrix, 2))
    expect = np.linalg.norm(mono.matrix - coarse, 2) / (15.0 * scale)
    assert mono.error_estimate == pytest.approx(expect, rel=1e-6)


def test_ode_monodromy_matches_stage_loop_reference():
    # the step-map march sums the stages in another order than the textbook
    # loop, so the two agree to rounding, not bit for bit
    prob = get_case("center-periodic").problem()
    times = np.linspace(0.0, prob.period, 65)
    a = prob.coefficient_at(0.0)
    ref = _stage_loop(lambda t: a, lambda t: 0.0, times, np.eye(2))
    got = ode_monodromy(prob, steps=64).values
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a time-varying plain callable: the loop reads A(t + h) where the march
    # reuses A at the next grid point, which may differ in the last bit
    prob = get_case("trig-periodic").problem()
    coeff = prob.coefficient
    plain = _periodic(lambda t: coeff(t), prob.period, prob.feedback.gain)
    ref = _stage_loop(coeff, lambda t: 0.0, times, np.eye(2))
    assert np.max(np.abs(ode_monodromy(plain, steps=64).values - ref)) <= 1e-14


def _rk4_stability(z):
    """RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 on a matrix."""
    eye = np.eye(len(z), dtype=z.dtype)
    return eye + z @ (eye + z @ (eye / 2 + z @ (eye / 6 + z / 24)))


def test_ode_monodromy_constant_coefficient_is_stability_polynomial_power():
    # for constant A every RK4 step is the same matrix R(hA)
    prob = get_case("center-periodic").problem()
    steps = 64
    z = prob.period / steps * prob.coefficient_at(0.0)
    expect = np.linalg.matrix_power(_rk4_stability(z), steps)
    got = ode_monodromy(prob, steps=steps).matrix
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)
def test_long_constant_coefficient_march_does_not_drift():
    # I + D stored in double drops the same low bits of the step increment D
    # at every step; over 16k steps that bias reaches ~1e-12, so the march
    # must apply Y + D Y instead.  The reference is R(hA)^N in long double.
    prob = get_case("center-periodic").problem()
    steps = 16384
    z = (prob.period / steps * prob.coefficient_at(0.0)).astype(np.longdouble)
    expect = np.linalg.matrix_power(_rk4_stability(z), steps).astype(float)
    got = ode_monodromy(prob, steps=steps).matrix
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def _stages_on(prob, times):
    """``_rk4`` stage samples through ``coefficient_on`` at ``times`` and
    their step midpoints, for a grid that need not be uniform."""
    return prob.coefficient_on(times), prob.coefficient_on(times[:-1] + 0.5 * np.diff(times))


def _constant_stages(a, steps):
    """``_rk4`` stage samples of a constant coefficient over ``steps`` steps."""
    return np.broadcast_to(a, (steps + 1,) + a.shape), np.broadcast_to(a, (steps,) + a.shape)


# an element budget that cuts the test marches into blocks of 28 to 256
# steps, so that a stage-loop reference can follow them across block edges
_SMALL_BUDGET = 256


def _small_block(y0):
    """``_rk4``'s block length for Y shaped like y0 under _SMALL_BUDGET."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
        return periodic._block_steps(y0)


@pytest.mark.filterwarnings("error")
def test_rk4_raises_when_the_march_blows_up(monkeypatch):
    # R(hA) ~ 5e4 per step for a block and 44 steps: far past the double range
    monkeypatch.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
    block = periodic._block_steps(np.eye(2))
    steps = block + 44
    times = np.linspace(0.0, 1.0, steps + 1)
    a = 1e4 * np.eye(2)
    stages = _constant_stages(a, steps)
    with pytest.raises(NumericalError, match="RK4 march blew up"):
        periodic._rk4(times, stages, np.eye(2), [0, block, steps])


@st.composite
def _march_cases(draw):
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    block = _small_block(np.zeros((n, n)))
    steps = draw(st.integers(block + 1, 2 * block + 40))
    pattern = draw(st.sampled_from(["scattered", "every", "runs"]))
    if pattern == "every":
        # every grid index, as ode_monodromy keeps them
        keep = list(range(steps + 1))
    elif pattern == "runs":
        # consecutive indices on both sides of each block edge
        before, after = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        keep = sorted({
            k
            for edge in range(block, steps, block)
            for k in range(edge - before, min(edge + after, steps) + 1)
        })
    else:
        edges = [0, block - 1, block, block + 1, steps, -1]
        keep = draw(st.lists(st.sampled_from(edges + list(range(steps + 1))), max_size=8))
        keep = draw(st.permutations(keep + [0, block, block]))
    return n, seed, steps, keep


@settings(max_examples=75, deadline=None)
@given(_march_cases())
def test_rk4_matches_stage_loop_across_blocks(case):
    n, seed, steps, keep = case
    rng = np.random.default_rng(seed)
    period = rng.uniform(0.5, 2.0)
    coeff = TrigCoefficient(rng.uniform(-1.0, 1.0, (rng.integers(1, 6), n, n)), period)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, steps))])
    times *= period / times[-1]
    stages = _stages_on(_periodic(coeff, period, np.zeros((n, n))), times)
    y0 = rng.uniform(-1.0, 1.0, (n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
        got = periodic._rk4(times, stages, y0, keep)
    ref = _stage_loop(coeff, lambda t: 0.0, times, y0)[keep]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rk4_matches_stage_loop_with_a_many_mode_coefficient(monkeypatch):
    # 300 samples give 151 modes, so the coefficient's phase table is built
    # in two levels (b = 12); the march still matches the textbook loop
    rng = np.random.default_rng(8)
    n, period = 2, 1.3
    y0 = rng.uniform(-1.0, 1.0, (n, n))
    monkeypatch.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
    block = periodic._block_steps(y0)
    steps = 8 * block + 37
    coeff = TrigCoefficient(rng.uniform(-1.0, 1.0, (300, n, n)), period)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, steps))])
    times *= period / times[-1]
    stages = _stages_on(_periodic(coeff, period, np.zeros((n, n))), times)
    keep = [0, block, steps]
    got = periodic._rk4(times, stages, y0, keep)
    ref = _stage_loop(coeff, lambda t: 0.0, times, y0)[keep]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_march_memory_does_not_grow_with_the_step_count():
    # blocks are cut to a fixed element budget, so a march four times as
    # long peaks at about the same allocation: only the kept snapshots
    # are stored, and every per-step array lives for one block
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y0 = np.eye(2)
    block = periodic._block_steps(y0)

    def peak(steps):
        times = np.linspace(0.0, 1.0, steps + 1)
        stages = _constant_stages(a, steps)
        tracemalloc.start()
        try:
            periodic._rk4(times, stages, y0, [steps])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(3 * block + 5), peak(12 * block + 20)
    assert long <= 1.1 * short
    # and a block's own temporaries are a few copies of the budget
    assert short <= 16 * 8 * periodic._BUDGET


def _sequential_composites(d):
    """The prefix composites of ``_scan`` one step at a time: D1 then D2 is
    D1 + D2 + D2 D1."""
    out = np.empty_like(d)
    acc = np.zeros_like(d[0])
    for k in range(len(d)):
        acc = acc + d[k] + d[k] @ acc
        out[k] = acc
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(2, 1, 0)
@example(2, 256, 1)
@example(2, 257, 2)
def test_two_level_scan_matches_sequential_composition(n, length, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-0.2, 0.2, (length, n, n))
    got = periodic._scan(d)
    ref = _sequential_composites(d)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("form", ["matrix", "matrix_collocated"])
def test_dde_forms_match_stage_loop_reference(form):
    # the history basis marched by the textbook loop through
    # U' = (A + G) U - G phi(t - T) on a grid that contains every history
    # node; at 2048 steps its RK4 error is about 5e-11 of the result (8e-10
    # at 1024), and either form is within about 5e-11 of it at 16 nodes
    from pyrastab.chebyshev import barycentric_weights, interp_row

    prob = get_case("trig-periodic").problem()
    nodes, steps, period = 16, 2048, prob.period
    gain = prob.feedback.gain
    theta = lobatto_nodes(nodes, -period, 0.0)
    weights = barycentric_weights(nodes)
    times = np.union1d(np.linspace(0.0, period, steps + 1), period + theta)
    times = times[np.concatenate([[True], np.diff(times) > 1e-13 * period])]
    times[-1] = period

    def history(s):
        return np.kron(interp_row(theta, weights, s), np.eye(2))

    u = _stage_loop(
        lambda t: prob.coefficient_at(t) + gain,
        lambda t: -gain @ history(t - period),
        times,
        history(0.0),
    )
    idx = [int(np.argmin(np.abs(times - m))) for m in period + theta]
    ref = np.concatenate([u[i] for i in idx])
    got = getattr(dde_monodromy(prob, nodes=nodes), form)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("name, bound", [("center-periodic", 1e-11), ("diag-periodic", 1e-14)])
@pytest.mark.parametrize("nodes", [32, 128])
def test_value_at_the_quadrature_marks_matches_the_exponential(name, bound, nodes):
    # value_at reaches a mark off the grid by one RK4 step from the grid
    # point before it, the rule the delay monodromy's marks use; for a
    # constant A, Y(t) = expm(A t) (largest errors 4.6e-12 and 1.7e-15)
    prob = get_case(name).problem()
    mono = ode_monodromy(prob)
    a = prob.coefficient_at(0.0)
    for mark in prob.period + lobatto_nodes(2 * nodes - 1, -prob.period, 0.0):
        expect = scipy.linalg.expm(a * mark)
        got = mono.value_at(float(mark))
        assert np.max(np.abs(got - expect)) <= bound * np.max(np.abs(expect))


# --- Floquet decomposition ------------------------------------------------------


def test_floquet_factors_periodic_and_consistent():
    prob = get_case("orbit-unstable").problem()
    mono = ode_monodromy(prob)
    dec = floquet_decompose(mono)
    period = prob.period
    for t in np.linspace(0.0, period, 9):
        p0 = dec.periodic_factor(float(t))
        p1 = dec.periodic_factor(float(t) + period)
        assert np.max(np.abs(p1 - p0)) < 1e-9
        y = mono.value_at(float(t))
        recon = p0 @ dec.exponential_factor(float(t))
        assert np.max(np.abs(y - recon)) < 1e-9
    assert dec.log_residual <= DEFAULT.tol_log


def test_floquet_generator_recovers_exponents():
    prob = get_case("orbit-unstable").problem()
    dec = floquet_decompose(ode_monodromy(prob))
    got = sorted(np.linalg.eigvals(dec.generator).real)
    assert got == pytest.approx([-0.2, 0.1], abs=1e-10)


def test_floquet_branch_points_sorted_by_magnitude():
    prob = get_case("orbit-unstable").problem()
    dec = floquet_decompose(ode_monodromy(prob))
    mags = [abs(b.multiplier) for b in dec.branches]
    assert mags == sorted(mags, reverse=True)
    top = dec.branches[0]
    assert top.multiplier == pytest.approx(np.exp(0.1 * 2 * np.pi), rel=1e-10)
    assert top.exponent == pytest.approx(0.1, abs=1e-10)


# --- multiplier reports -----------------------------------------------------------


def test_multiplier_report_counts_and_clusters():
    prob = get_case("orbit-unstable").problem()
    rep = multipliers(ode_monodromy(prob))
    assert rep.outside_count == 1
    assert rep.unit_algebraic == 0
    vals = sorted(abs(e.value) for e in rep.entries)
    assert vals == pytest.approx(
        [np.exp(-0.2 * 2 * np.pi), np.exp(0.1 * 2 * np.pi)], rel=1e-10
    )
    assert rep.real_greater_one() == 1


def test_multiplier_report_unit_cluster():
    # plain center: multipliers 1, 1 with full geometric multiplicity
    prob = _periodic(
        ConstantCoefficient(np.array([[0.0, -1.0], [1.0, 0.0]])),
        2 * np.pi,
        np.array([[1.0, 2.0], [0.0, 1.0]]),
    )
    rep = multipliers(ode_monodromy(prob))
    assert (rep.unit_algebraic, rep.unit_geometric) == (2, 2)


def _schur_spectrum(mat):
    """The eigenvalues of one Schur form of ``mat``, taken with its Schur
    vectors: ``wr + i wi`` of a real form, the diagonal of a complex one."""
    if np.iscomplexobj(mat):
        return np.diagonal(scipy.linalg.schur(mat, output="complex")[0])
    _, _, wr, wi, _, _, info = scipy.linalg.lapack.dgees(lambda x, y: None, mat)
    assert info == 0
    return wr + 1j * wi


def _former_multipliers(mat, tol=DEFAULT, floor=None, spectrum=_schur_spectrum):
    """Oracle: the report built on ``spectrum(mat)`` with one np.mean per
    (multiplier, cluster) pair and one sorted Schur form per cluster."""
    if floor is None:
        floor = tol.mu_floor
    eigs = spectrum(mat)
    outside = int(np.sum(np.abs(eigs) > 1.0 + tol.tol_circle))
    on_circle = int(np.sum(np.abs(np.abs(eigs) - 1.0) <= tol.tol_circle))
    unit_alg, unit_geo = sorted_schur_multiplicity(mat, 1.0 + 0.0j, tol.tol_one, tol.rank_factor)
    kept = [complex(e) for e in eigs if abs(e) > floor]
    kept.sort(key=lambda z: (-abs(z), z.real, z.imag))
    clusters = []
    for e in kept:
        radius = tol.tol_one * max(1.0, abs(e))
        for c in clusters:
            if abs(np.mean(c) - e) <= radius:
                c.append(e)
                break
        else:
            clusters.append([e])
    entries = []
    for c in clusters:
        value = complex(np.mean(c))
        alg = len(c)
        if alg == 1:
            geo = 1
        else:
            band = max(abs(z - value) for z in c) + tol.tol_one * max(1.0, abs(value))
            alg2, geo = sorted_schur_multiplicity(mat, value, band, tol.rank_factor)
            alg = max(alg, alg2)
        entries.append(periodic.MultiplierEntry(value, alg, geo))
    entries.sort(key=lambda e: (-abs(e.value), e.value.real, e.value.imag))
    return periodic.MultiplierReport(tuple(entries), outside, on_circle, unit_alg, unit_geo,
                                     float(np.linalg.norm(mat, 2)), float(floor))


@pytest.mark.parametrize(
    "name", ["center-periodic", "orbit-unstable", "orbit-neutral", "diag-periodic",
             "trig-periodic"])
def test_multipliers_match_former_report_on_dde_matrices(name):
    prob = get_case(name).problem()
    for nodes in (16, 32):
        mat = dde_monodromy(prob, nodes=nodes).matrix
        for floor in (None, 1e-6):
            want = _former_multipliers(mat, floor=floor)
            assert multipliers(SimpleNamespace(matrix=mat), _floored(floor)) == want


@pytest.mark.parametrize(
    "name", ["center-periodic", "orbit-unstable", "orbit-neutral", "diag-periodic",
             "trig-periodic"])
def test_schur_spectrum_keeps_the_eigvals_report_up_to_rounding(name):
    # The report reads its spectrum off the real Schur form (dgees, no
    # balancing); the report built on np.linalg.eigvals (dgeev, balanced)
    # has the same counts, clusters and multiplicities, and values within
    # 1e-13 ||M||: 8.7e-15 ||M|| at most, on center-periodic, whose
    # ||M|| = 6.1e5 comes from its multiplier 2.9e5.
    prob = get_case(name).problem()
    for nodes in (16, 32):
        mat = dde_monodromy(prob, nodes=nodes).matrix
        got = multipliers(SimpleNamespace(matrix=mat))
        want = _former_multipliers(mat, spectrum=np.linalg.eigvals)
        assert got.entries and len(got.entries) == len(want.entries)
        assert [(e.algebraic, e.geometric) for e in got.entries] == [
            (e.algebraic, e.geometric) for e in want.entries]
        assert dataclasses.replace(got, entries=want.entries) == want
        shift = max(abs(g.value - w.value) for g, w in zip(got.entries, want.entries))
        assert shift <= 1e-13 * want.norm_bound



@pytest.mark.parametrize(
    "name, nodes",
    [(name, 64) for name in ("center-periodic", "orbit-unstable", "orbit-neutral",
                             "diag-periodic", "trig-periodic")]
    + [("orbit-neutral", 128), ("center-periodic", 128)],
)
def test_unit_multiplicity_matches_complex_oracle_on_fine_dde_matrices(name, nodes):
    # the grids check_determining_invariance uses at its default 64 nodes
    mat = dde_monodromy(get_case(name).problem(), nodes=nodes).matrix
    want = sorted_schur_multiplicity(mat.astype(complex), 1.0 + 0.0j, DEFAULT.tol_one,
                                     DEFAULT.rank_factor)
    assert cluster_multiplicity(mat, 1.0 + 0.0j, DEFAULT.tol_one, DEFAULT.rank_factor) == want

def test_multipliers_join_the_first_cluster_in_reach():
    # the third multiplier lies within tol_one of both earlier clusters and
    # joins the first one, the larger in modulus
    first, second, third = 1 + 2e-6, 1 + 1.5e-6 + 1.2e-6j, 1 + 1.2e-6 + 0.5e-6j
    mat = np.diag([third, first, second])
    rep = multipliers(SimpleNamespace(matrix=mat))
    assert rep == _former_multipliers(mat)
    assert [e.value for e in rep.entries] == [complex(np.mean([first, third])), second]


# real eigen-blocks: a real value or a conjugate pair (a +- ib)
_BLOCKS = ((1.0, 0.0), (1.0 + 4e-7, 0.0), (-1.0, 0.0), (0.5, 0.0), (2.0, 0.0), (1e-8, 0.0),
           (0.6, 0.8), (0.0, 1.0), (1.2, 0.5), (0.6 + 3e-7, 0.8))


@st.composite
def _planted_spectra(draw):
    """Real S (D + N) S^-1: repeated real values and conjugate pairs, some
    with a nilpotent coupling N, and exact ties when S = I."""
    blocks = []
    for a, b in draw(st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 3))):
            blocks.append(np.array([[a]]) if b == 0.0 else np.array([[a, -b], [b, a]]))
    planted = scipy.linalg.block_diag(*blocks)
    n = planted.shape[0]
    coupled = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    for k, c in enumerate(coupled):
        if c and planted[k, k] == planted[k + 1, k + 1] and planted[k + 1, k] == 0.0:
            planted[k, k + 1] = 1.0
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = q * np.exp(rng.uniform(-0.5, 0.5, n))
        planted = s @ planted @ np.linalg.inv(s)
    return planted


@settings(max_examples=60, deadline=None)
@given(_planted_spectra(), st.sampled_from([None, 1e-6, 0.7]))
def test_multipliers_match_former_report_on_planted_spectra(mat, floor):
    try:
        want = _former_multipliers(mat, floor=floor)
    except NumericalError:
        with pytest.raises(NumericalError):
            multipliers(SimpleNamespace(matrix=mat), _floored(floor))
        return
    assert multipliers(SimpleNamespace(matrix=mat), _floored(floor)) == want


# --- DDE monodromy ----------------------------------------------------------------


@pytest.mark.parametrize("nodes", [32, 64, 128])
@pytest.mark.parametrize("name", _PERIODIC_CASES)
def test_cross_residual_bounds_the_svd_gap_closely_on_the_catalog(name, nodes):
    # the O(N^2) bound is never below the exact relative gap (up to an ulp
    # or two of rounding) and at most twice it on the periodic catalog
    dde = dde_monodromy(get_case(name).problem(), nodes=nodes)
    diff = dde.matrix - dde.matrix_collocated
    gap = spectral_norm(diff) / max(1.0, spectral_norm(dde.matrix))
    assert gap * (1.0 - 8.0 * np.finfo(float).eps) <= dde.cross_residual <= 2.0 * gap
    assert dde.cross_residual < DEFAULT.tol_xcheck


@pytest.mark.parametrize("name, nodes", [(name, 32) for name in _PERIODIC_CASES]
                         + [("orbit-neutral", 64), ("center-periodic", 64)])
def test_one_march_builds_both_grids_as_separate_builds_do(name, nodes):
    # the determining check's two grids share one march of A + alpha K and
    # one step to all their marks; each build is bitwise the one that
    # dde_monodromy makes alone
    prob = get_case(name).problem()
    shared = periodic._dde_builds(prob, 1.0, (nodes, 2 * nodes), DEFAULT, 2048)
    for m, dde in zip((nodes, 2 * nodes), shared):
        alone = dde_monodromy(prob, nodes=m)
        assert dde.n_nodes == m
        assert np.array_equal(dde.nodes, alone.nodes)
        assert np.array_equal(dde.matrix, alone.matrix)
        assert np.array_equal(dde.matrix_collocated, alone.matrix_collocated)
        assert dde.cross_residual == alone.cross_residual


@pytest.mark.parametrize("name", _PERIODIC_CASES)
def test_cross_check_catches_a_collocation_with_the_gain_sign_flipped(name, monkeypatch):
    # the collocation of x' = (A + K) x + K phi(t - T) instead of - K phi:
    # the constructions then disagree far above tol_xcheck
    collocation = periodic._collocation

    def flipped(marks, a_marks, resample, gain):
        return collocation(marks, a_marks, resample, -gain)

    monkeypatch.setattr(periodic, "_collocation", flipped)
    with pytest.raises(CrossCheckError, match="disagree"):
        dde_monodromy(get_case(name).problem(), nodes=32)


def _planted_block(draw, rng, n, planted):
    """A real n x n matrix S core S^-1 with ``planted`` dimensions of
    eigenvalue 0 or +-i (multiplier 1 at T = 2 pi) beside a random block."""
    blocks, dim = [], 0
    while dim < planted:
        rotation = planted - dim >= 2 and draw(st.booleans())
        blocks.append(np.array([[0.0, -1.0], [1.0, 0.0]]) if rotation else np.zeros((1, 1)))
        dim += len(blocks[-1])
    if n > dim:
        blocks.append(rng.uniform(-0.5, 0.5, (n - dim, n - dim)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q * np.exp(rng.uniform(-0.5, 0.5, n))
    return s @ scipy.linalg.block_diag(*blocks) @ np.linalg.inv(s)


@st.composite
def _constant_problems(draw):
    """A constant J = S core S^-1 with ``planted`` dimensions of multiplier 1
    at T = 2 pi (blocks 0 and the rotation of frequency 1) beside a random
    block, S a rotation with scales in [e^-0.5, e^0.5], a random gain, and
    a node count."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planted = draw(st.integers(0, n))
    j = _planted_block(draw, rng, n, planted)
    gain = rng.uniform(-0.5, 0.5, (n, n))
    nodes = draw(st.integers(16, 48))
    return _periodic(ConstantCoefficient(j), 2 * np.pi, gain), nodes, planted


@settings(max_examples=8, deadline=None)
@given(_constant_problems())
def test_collocation_agrees_with_the_integral_form_on_constant_problems(case):
    prob, nodes, planted = case
    dde = dde_monodromy(prob, nodes=nodes)
    assert dde.cross_residual <= DEFAULT.tol_xcheck
    at_one = [cluster_multiplicity(m, 1.0 + 0.0j, DEFAULT.tol_one, DEFAULT.rank_factor)[1]
              for m in (dde.matrix, dde.matrix_collocated)]
    assert at_one == [planted, planted]


# strongly non-normal: ||J||_2 is about 637, and the fundamental solution of
# J + K reaches |Y| ~ 3e45 and cond ~ 9e17 at the quadrature marks
_SINGULAR_J = np.array([[-3.326, -13.87, 25.011, 32.801],
                        [-44.398, -180.926, 315.266, 416.829],
                        [5.464, 23.022, -42.115, -55.0],
                        [-23.727, -97.295, 171.14, 225.728]])
_SINGULAR_K = np.array([[-0.203, 0.418, -0.417, -0.355],
                        [-0.121, -0.241, 0.116, 0.195],
                        [0.204, 0.274, -0.325, 0.246],
                        [-0.254, 0.036, -0.279, 0.312]])


@pytest.mark.parametrize("nodes", [16, 32])
def test_dde_monodromy_raises_a_numerical_error_on_a_singular_fundamental_solution(nodes):
    # the integral form's solve with Y at the marks finds an exact zero pivot
    prob = _periodic(ConstantCoefficient(_SINGULAR_J), 2 * np.pi, _SINGULAR_K)
    with pytest.raises(NumericalError, match="singular"):
        dde_monodromy(prob, nodes=nodes)
    with pytest.raises(NumericalError, match="singular"):
        check_determining_invariance(prob, nodes=nodes)


def test_dde_monodromy_cross_residual_small():
    prob = _scalar_problem()
    dde = dde_monodromy(prob, nodes=48)
    assert dde.cross_residual <= DEFAULT.tol_xcheck
    assert dde.n_nodes == 48


def test_dde_multipliers_match_characteristic_roots():
    # autonomous system viewed periodically: every sizable multiplier is
    # exp(lambda T) for a characteristic root lambda
    rate, gain, period = 0.05, 0.3, 2 * np.pi
    prob = _scalar_problem(rate, gain, period)
    dde = dde_monodromy(prob, nodes=64)
    rep = multipliers(dde, DEFAULT.replace(mu_floor=0.1))
    floor_re = np.log(0.1) / period - 0.05
    region = Region(floor_re, 1.5, 8.0)
    roots = find_roots(scalar_characteristic(rate, gain, period), region)
    targets = [np.exp(r.value * period) for r in roots.all_roots]
    for entry in rep.entries:
        dist = min(abs(entry.value - t) for t in targets)
        assert dist <= 1e-6 * max(1.0, abs(entry.value))


def test_dde_monodromy_alpha_zero_reduces_to_flow():
    # with the feedback off, nonzero spectrum = spectrum of the ODE flow
    prob = get_case("orbit-unstable").problem()
    dde = dde_monodromy(prob, alpha=0.0, nodes=48)
    rep = multipliers(dde, DEFAULT.replace(mu_floor=0.05))
    got = sorted((e.value.real for e in rep.entries), reverse=True)
    expect = sorted(
        np.exp(np.array([0.1, -0.2]) * 2 * np.pi), reverse=True
    )
    assert got == pytest.approx(expect, abs=1e-8)


def test_dde_monodromy_rejects_bad_nodes():
    prob = _scalar_problem()
    with pytest.raises(InputError):
        dde_monodromy(prob, nodes=3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nodes": 8.5},
        {"nodes": 8.0},
        {"nodes": "8"},
        {"nodes": True},
        {"steps": -5},
        {"steps": 0},
        {"steps": 15},
        {"steps": 100.5},
        {"steps": 64.0},
    ],
)
def test_dde_monodromy_rejects_non_integer_or_small_counts(kwargs):
    prob = _scalar_problem()
    with pytest.raises(InputError):
        dde_monodromy(prob, **{"nodes": 8, **kwargs})


def test_dde_monodromy_accepts_numpy_integer_counts():
    prob = _scalar_problem()
    a = dde_monodromy(prob, nodes=np.int64(8), steps=np.int32(256))
    b = dde_monodromy(prob, nodes=8, steps=256)
    assert np.array_equal(a.matrix, b.matrix)


def test_dde_monodromy_plain_callable_matches_batched_coefficient():
    # a coefficient without a batched evaluation goes through the
    # per-time fallback and must give the same operator
    trig = get_case("trig-periodic").problem()
    coeff = trig.coefficient
    plain = _periodic(lambda t: coeff(t), trig.period, trig.feedback.gain)
    a = dde_monodromy(trig, nodes=16)
    b = dde_monodromy(plain, nodes=16)
    assert b.cross_residual <= DEFAULT.tol_xcheck
    for x, y in ((a.matrix, b.matrix), (a.matrix_collocated, b.matrix_collocated)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))
    assert b.cross_residual == pytest.approx(a.cross_residual, abs=1e-12)


@pytest.mark.parametrize("name", ["orbit-neutral", "trig-periodic"])
def test_grid_sampling_matches_the_per_time_path(name):
    # a TrigCoefficient is sampled on the march's uniform grid by one inverse
    # FFT; wrapped as a plain callable it is sampled one time at a time
    prob = get_case(name).problem()
    coeff = prob.coefficient
    plain = _periodic(lambda t: coeff(t), prob.period, prob.feedback.gain)
    a, b = ode_monodromy(prob).matrix, ode_monodromy(plain).matrix
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    a, b = dde_monodromy(prob, nodes=16), dde_monodromy(plain, nodes=16)
    for x, y in ((a.matrix, b.matrix), (a.matrix_collocated, b.matrix_collocated)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))


def test_dde_monodromy_samples_only_the_steps_to_the_marks(monkeypatch):
    # a TrigCoefficient samples the uniform grid and its midpoints by one
    # inverse FFT; only the one step to each of the 2 nodes - 1 marks, its
    # start, midpoint and end, goes through coefficient_on
    prob = get_case("trig-periodic").problem()
    nodes = 32
    sampled = []
    coefficient_on = PeriodicLinearProblem.coefficient_on

    def recorded(self, t):
        sampled.extend(t)
        return coefficient_on(self, t)

    monkeypatch.setattr(PeriodicLinearProblem, "coefficient_on", recorded)
    dde_monodromy(prob, nodes=nodes)
    marks = prob.period + lobatto_nodes(2 * nodes - 1, -prob.period, 0.0)
    assert 0 < len(sampled) <= 3 * len(marks)
    assert set(marks) <= set(sampled)


@pytest.mark.parametrize("kind", ["trig", "constant", "callable"])
def test_stage_coefficients_read_a_grid_evaluation_only_when_there_is_one(kind):
    # a TrigCoefficient samples the march grid itself; a constant or a plain
    # callable has no grid evaluation and keeps the per-time path
    rng = np.random.default_rng(8)
    period, steps = 1.7, 12
    trig = TrigCoefficient(rng.standard_normal((8, 3, 3)), period)
    coeff = {"trig": trig, "constant": ConstantCoefficient(np.eye(3)),
             "callable": lambda t: np.cos(2 * np.pi * t / period) * np.eye(3)}[kind]
    prob = _periodic(coeff, period, 0.2 * np.eye(3))
    assert hasattr(coeff, "on_grid") == (kind == "trig")
    got = periodic._stage_coefficients(prob, steps)
    ref = _stages_on(prob, np.linspace(0.0, period, steps + 1))
    for x, y in zip(got, ref):
        assert x.shape == y.shape
        assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))


# --- determining centers -------------------------------------------------------------


def test_determining_invariance_center():
    prob = _periodic(
        ConstantCoefficient(np.array([[0.0, -1.0], [1.0, 0.0]])),
        2 * np.pi,
        np.array([[1.0, 2.0], [0.0, 1.0]]),
    )
    inv = check_determining_invariance(prob, nodes=32)
    assert inv.g_ode == 2
    assert inv.g_dde == 2
    assert inv.g_dde_refined == 2
    assert inv.equal


def test_determining_invariance_trivial_and_one_dimensional():
    unstable = get_case("orbit-unstable").problem()
    inv0 = check_determining_invariance(unstable, nodes=32)
    assert (inv0.g_ode, inv0.g_dde) == (0, 0) and inv0.equal

    neutral = get_case("orbit-neutral").problem()
    inv1 = check_determining_invariance(neutral, nodes=32)
    assert (inv1.g_ode, inv1.g_dde) == (1, 1) and inv1.equal


def _counted(monkeypatch, *names):
    """Calls of each of the ``periodic`` functions ``names``, recorded."""
    calls = {name: 0 for name in names}

    def counter(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(periodic, name, counter(name, getattr(periodic, name)))
    return calls


def test_determining_invariance_marches_once_for_both_grids(monkeypatch):
    prob = get_case("orbit-neutral").problem()
    mono = ode_monodromy(prob)
    calls = _counted(monkeypatch, "_rk4", "_step_to", "_stage_coefficients", "_collocation")
    inv = check_determining_invariance(prob, nodes=16, monodromy=mono)
    assert (inv.g_ode, inv.g_dde, inv.g_dde_refined) == (1, 1, 1)
    assert calls == {"_rk4": 1, "_step_to": 1, "_stage_coefficients": 1, "_collocation": 2}


def test_determining_invariance_builds_no_second_grid_after_a_refusal(monkeypatch):
    # the march is shared, but the doubled grid's N x N forms are built only
    # once the first grid has its multiplicity
    prob = get_case("orbit-neutral").problem()
    mono = ode_monodromy(prob)
    calls = _counted(monkeypatch, "_collocation", "_integral_form")

    def refuse(*args):
        raise InconclusiveMultiplicityError("refused")

    monkeypatch.setattr(periodic, "_unit_geometric", refuse)
    with pytest.raises(InconclusiveMultiplicityError, match="refused"):
        check_determining_invariance(prob, nodes=16, monodromy=mono)
    assert calls == {"_collocation": 1, "_integral_form": 1}


def _unit_band_margin(mat, n):
    """The smallest ratio between a singular value of the Schur complement
    of M - I and the nearest edge ``_unit_geometric`` decides at: the zero
    threshold tol_one and the refused band (10 tol_one, _BAND 10 tol_one]."""
    edges = DEFAULT.tol_one * np.array([1.0, 10.0, 10.0 * periodic._BAND])
    svals = scipy.linalg.svdvals(schur_complement(mat - np.eye(len(mat)), n)[0])
    return min(np.max([v / edges, edges / v], axis=0).min() for v in svals)


@pytest.mark.parametrize("name", _PERIODIC_CASES)
def test_unit_geometric_matches_the_schur_rule_on_the_catalog(name):
    prob = get_case(name).problem()
    mat = dde_monodromy(prob, nodes=32).matrix
    want = cluster_multiplicity(mat, 1.0 + 0.0j, DEFAULT.tol_one, DEFAULT.rank_factor)[1]
    assert periodic._unit_geometric(mat, prob.dimension, DEFAULT) == want
    # the margin the _BAND comment quotes, 39x on trig-periodic
    assert _unit_band_margin(mat, prob.dimension) >= 30.0
    # S is the ODE's Y(T) - I up to the discretization
    s = schur_complement(mat - np.eye(len(mat)), prob.dimension)[0]
    gap = ode_monodromy(prob).matrix - np.eye(prob.dimension) - s
    assert np.max(np.abs(gap)) <= 2e-3 * max(1.0, np.max(np.abs(s)))


@st.composite
def _unit_problems(draw):
    """A problem, a node count and its planted multiplicity at 1 (None: not
    planted): a constant one from ``_constant_problems``; a random
    trigonometric one; or a constructed orbit A(t) = cos(t) S + P(t) B
    P(t)^-1, P(t) = expm(S sin t), whose monodromy is expm(2 pi B) with B
    planted."""
    kind = draw(st.sampled_from(["constant", "trig", "orbit"]))
    if kind == "constant":
        return draw(_constant_problems())
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gain = rng.uniform(-0.5, 0.5, (n, n))
    nodes = draw(st.integers(24, 64))
    period = 2 * np.pi
    if kind == "trig":
        coeff = TrigCoefficient(rng.uniform(-0.3, 0.3, (rng.integers(1, 6), n, n)), period)
        return _periodic(coeff, period, gain), nodes, None
    planted = draw(st.integers(0, min(n, 2)))
    b = _planted_block(draw, rng, n, planted)
    s = rng.uniform(-0.5, 0.5, (n, n))
    times = np.arange(64) * (period / 64)
    values = []
    for t in times:
        p = scipy.linalg.expm(s * np.sin(t))
        values.append(np.cos(t) * s + p @ b @ np.linalg.inv(p))
    return _periodic(TrigCoefficient(np.array(values), period), period, gain), nodes, planted


@settings(max_examples=15, deadline=None)
@given(_unit_problems())
def test_unit_geometric_matches_the_schur_rule(case):
    prob, nodes, planted = case
    mat = dde_monodromy(prob, nodes=nodes).matrix
    # a multiplier of M near 1 but outside the cluster is where S, which
    # follows the ODE's multipliers, and the Schur rule on M may differ (see
    # the radius and band tests below)
    dist = np.abs(np.linalg.eigvals(mat) - 1.0)
    assume(not np.any((dist > DEFAULT.tol_one) & (dist < 0.1)))
    want = cluster_multiplicity(mat, 1.0 + 0.0j, DEFAULT.tol_one, DEFAULT.rank_factor)[1]
    assert periodic._unit_geometric(mat, prob.dimension, DEFAULT) == want
    assert planted is None or want == planted


@pytest.mark.parametrize("at_one", [2e-5, 5e-3])
def test_unit_geometric_refuses_a_singular_value_in_the_band(at_one):
    # M - I = diag(-1, -1, -1, at_one): A11 = -I, and S = [at_one] lies in
    # the band (10 tol_one, _BAND 10 tol_one]
    mat = np.eye(4) + np.diag([-1.0, -1.0, -1.0, at_one])
    with pytest.raises(InconclusiveMultiplicityError, match="Schur complement"):
        periodic._unit_geometric(mat, 1, DEFAULT)


@pytest.mark.parametrize("at_one, geometric", [(5e-7, 1), (5e-6, 0), (0.5, 0)])
def test_unit_geometric_decides_outside_the_band(at_one, geometric):
    # zero up to tol_one; above it and below the band, a multiplier that
    # g_ode's Schur rule would leave out too
    mat = np.eye(4) + np.diag([-1.0, -1.0, -1.0, at_one])
    assert periodic._unit_geometric(mat, 1, DEFAULT) == geometric


@pytest.mark.parametrize("rates, gain, geometric", [
    # ODE multiplier 1 + 6.3e-6, beyond tol_one; the gain moves M's to
    # 1 + 2.2e-6, and S's singular value, 6.3e-6, lies below the band
    ((1e-6, -1.0), -0.3, 0),
    # ODE multiplier 1 + 6.3e-7, within tol_one; |1 - k T| = 0.058 moves
    # M's out to 1 + 1.1e-5, where the Schur rule on M no longer counts it
    ((1e-7,), 0.15, 1),
])
def test_determining_invariance_holds_s_to_the_radius_of_g_ode(rates, gain, geometric):
    # S is the ODE's Y(T) - I: its smallest singular value is the ODE
    # multiplier's distance from 1, whatever the gain does to M's
    n = len(rates)
    prob = _periodic(ConstantCoefficient(np.diag(rates)), 2 * np.pi, gain * np.eye(n))
    mat = dde_monodromy(prob, nodes=32).matrix
    svals = scipy.linalg.svdvals(schur_complement(mat - np.eye(len(mat)), n)[0])
    assert svals[-1] == pytest.approx(np.expm1(2 * np.pi * rates[0]), rel=1e-3)
    inv = check_determining_invariance(prob, nodes=32)
    assert (inv.g_ode, inv.g_dde, inv.g_dde_refined) == (geometric,) * 3 and inv.equal


def test_delay_multiplier_report_unit_counts_may_differ_from_g_dde():
    # the report counts multipliers of M within tol_one of 1 by the Schur
    # rule; the gain moves the ODE multiplier 1 + 6.3e-7 out to M's
    # 1 + 1.09e-5, so the report's unit counts are 0 while g_ode, g_dde and
    # g_dde_refined, from Y(T) and the Schur complement of M - I, are 1
    prob = _scalar_problem(rate=1e-7, gain=0.15)
    rep = multipliers(dde_monodromy(prob, nodes=64))
    assert (rep.unit_algebraic, rep.unit_geometric) == (0, 0)
    assert rep.dominant.value.real == pytest.approx(1.0 + 1.09e-5, abs=1e-7)
    inv = check_determining_invariance(prob, nodes=64)
    assert (inv.g_ode, inv.g_dde, inv.g_dde_refined) == (1, 1, 1)


def test_determining_invariance_refuses_a_multiplier_next_to_one():
    # x' = r x with e^{r T} = 1 + 1e-3: S's one singular value is about
    # 1e-3, in the band
    prob = _scalar_problem(rate=np.log1p(1e-3) / (2 * np.pi))
    mat = dde_monodromy(prob, nodes=32).matrix
    svals = scipy.linalg.svdvals(schur_complement(mat - np.eye(len(mat)), 1)[0])
    assert 10.0 * DEFAULT.tol_one < svals[0] <= periodic._BAND * 10.0 * DEFAULT.tol_one
    with pytest.raises(InconclusiveMultiplicityError):
        check_determining_invariance(prob, nodes=32)


@pytest.mark.parametrize("corner", [1e-6, 0.0])
def test_unit_geometric_refuses_a_leading_block_near_singular(corner):
    # M - I = diag(corner, -1, -1, 0): A11's distance to singular is corner,
    # below _A11_FLOOR, and exactly 0 is an exact zero pivot
    mat = np.eye(4) + np.diag([corner, -1.0, -1.0, 0.0])
    with pytest.raises(NumericalError, match="singular"):
        periodic._unit_geometric(mat, 1, DEFAULT)


# --- commuting structure ----------------------------------------------------------------


def _commuting_hypotheses(name):
    """The commuting-gain rule's commutator hypotheses on a catalog case,
    with the Floquet generator B and with the periodic factor P(t)."""
    prob = get_case(name).problem()
    _, h_b, h_p = periodic_verdicts(ode_monodromy(prob))[2].hypotheses
    return h_b, h_p


def test_commuting_check_scalar_gain_commutes():
    h_b, h_p = _commuting_hypotheses("orbit-unstable")  # gain 0.2 I
    assert h_b.passed and h_p.passed
    assert h_b.tolerance == h_p.tolerance == DEFAULT.tol_comm


def test_commuting_check_detects_noncommuting_gain():
    h_b, h_p = _commuting_hypotheses("orbit-neutral")  # gain [[0.3, 0.1], [0, 0.3]]
    assert not (h_b.passed and h_p.passed)


def test_commuting_check_zero_generator_commutes_exactly():
    # the monodromy of a full rotation is I, so B is zero up to rounding;
    # its relative commutator would be noise divided by noise
    h_b, h_p = _commuting_hypotheses("center-periodic")
    assert h_b.passed and h_b.value == 0.0
    assert "zero" in h_b.detail
    assert not h_p.passed  # P(t) is the rotation, a genuine 0.8165
    assert h_p.value == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-9)


def test_commuting_check_keeps_a_genuine_generator_commutator():
    h_b, _ = _commuting_hypotheses("orbit-neutral")
    assert "zero" not in h_b.detail
    assert h_b.value == pytest.approx(0.2294157, abs=1e-7)
    assert not h_b.passed


@pytest.mark.parametrize("target", ["floquet_decompose", "periodic_factor"])
def test_commuting_hypotheses_fail_without_a_floquet_decomposition(monkeypatch, target):
    # a decomposition that raises, or a periodic factor that raises at one of
    # the sampled times, leaves both commutator hypotheses unmeasured
    def refuse(*args):
        raise NumericalError("refused")

    if target == "floquet_decompose":
        monkeypatch.setattr(periodic, "floquet_decompose", refuse)
    else:
        monkeypatch.setattr(periodic.FloquetDecomposition, "_periodic_factors", refuse)
    h_b, h_p = _commuting_hypotheses("orbit-unstable")
    for h in (h_b, h_p):
        assert not h.passed and h.value is None
        assert h.detail == "Floquet decomposition unavailable"


@pytest.mark.parametrize(
    "name, outcomes",
    [
        ("center-periodic", ("not-excluded",) * 3),
        ("orbit-unstable", ("excluded",) * 3),
        ("orbit-neutral", ("not-excluded",) * 3),
        ("diag-periodic", ("not-excluded", "excluded", "excluded")),
        ("trig-periodic", ("excluded",) * 3),
    ],
)
def test_periodic_catalog_verdict_outcomes(name, outcomes):
    verdicts = periodic_verdicts(ode_monodromy(get_case(name).problem()))
    assert tuple(v.outcome for v in verdicts) == outcomes


def test_common_eigenpair_lifts_restriction():
    b = np.diag([0.1, -0.2])
    gain = np.diag([0.4, 0.7])
    pairs = common_eigenpair(b, gain, 0.1 + 0.0j)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.gain_eigenvalue == pytest.approx(0.4)
    assert p.residual_generator < 1e-12
    assert p.residual_gain < 1e-12
    assert p.real_gain


def test_common_eigenpair_requires_eigenvalue():
    with pytest.raises(InputError):
        common_eigenpair(np.diag([0.1, -0.2]), np.eye(2), 0.5 + 0.0j)


# --- periodic verdicts ---------------------------------------------------------------------


def test_periodic_verdicts_witness_a_near_scalar_generator():
    # A = 0.05 I up to rounding, K = 0.3 I: B is a multiple of the identity
    # to the monodromy's accuracy, and the eigenspace at the unstable
    # exponent is all of R^2; the witness is exp(m T) for scalar-basic's
    # root m
    s = np.random.default_rng(0).normal(size=(2, 2)) + 2.0 * np.eye(2)
    a = s @ (0.05 * np.eye(2)) @ np.linalg.inv(s)
    prob = _periodic(ConstantCoefficient(a), 2 * np.pi, 0.3 * np.eye(2))
    _, v_real, _ = periodic_verdicts(ode_monodromy(prob))
    assert v_real.excluded
    assert abs(v_real.witness - 6.847072661803803) <= 1e-6


def test_periodic_verdicts_on_unstable_orbit():
    prob = get_case("orbit-unstable").problem()
    v_odd, v_real, v_comm = periodic_verdicts(ode_monodromy(prob))
    assert v_odd.rule == "odd-number" and v_odd.excluded
    assert v_odd.witness == pytest.approx(np.exp(0.1 * 2 * np.pi), rel=1e-9)
    assert v_real.rule == "commuting-real-spectrum" and v_real.excluded
    # witness = exp(root of the reduced equation * T)
    m = scipy.optimize.brentq(
        lambda m: m - 0.1 - 0.2 * (1 - np.exp(-2 * np.pi * m)), 0.0, 2.0, xtol=1e-14
    )
    assert v_real.witness == pytest.approx(np.exp(m * 2 * np.pi), rel=1e-8)
    assert v_comm.rule == "commuting-gain" and v_comm.excluded


@pytest.mark.parametrize("rates, dim", [((0.1, -0.2, -0.2), 1), ((0.1, 0.1, -0.2), 2)])
def test_periodic_verdicts_odd_unstable_eigenspace_waives_real_spectrum(rates, dim):
    # the gain has spectrum {0.2, +-0.3 i} and commutes with the generator;
    # the unstable eigenspace at exponent 0.1 has dimension ``dim``
    gain = scipy.linalg.block_diag([[0.2]], [[0.0, -0.3], [0.3, 0.0]])
    if dim == 2:
        gain = scipy.linalg.block_diag([[0.0, -0.3], [0.3, 0.0]], [[0.2]])
    prob = _periodic(ConstantCoefficient(np.diag(rates)), 2 * np.pi, gain)
    _, v_real, v_comm = periodic_verdicts(ode_monodromy(prob))
    h_spec = v_real.hypotheses[-1]
    assert h_spec.passed == (dim == 1)
    assert (f"odd dimension {dim}" in h_spec.detail) == (dim == 1)
    assert v_real.excluded == (dim == 1) and v_comm.excluded


def test_periodic_commuting_gain_witness_next_to_the_axis():
    # the reduced root 3.466e-7 sits just right of the axis, where the
    # half-plane search cannot certify it; both commuting rules take the
    # closed-form root m for the exponent the verdict reads and witness
    # exp(m T), as their equilibrium twins do
    prob = _periodic(ConstantCoefficient(np.diag([1e-6, -1.0])), 2 * np.pi, -0.3 * np.eye(2))
    verdicts = periodic_verdicts(ode_monodromy(prob))
    assert [v.rule for v in verdicts] == [
        "odd-number", "commuting-real-spectrum", "commuting-gain",
    ]
    assert all(v.excluded for v in verdicts)
    period = 2 * np.pi
    exponent = float(np.log(verdicts[0].witness.real) / period)
    m = scipy.optimize.brentq(
        lambda m: m - exponent - 0.3 * np.expm1(-m * period), 0.0, 1.0, xtol=1e-22
    )
    for v in verdicts[1:]:
        assert v.witness == pytest.approx(np.exp(m * period), rel=1e-14)
    assert verdicts[2].witness == pytest.approx(1.0000021779179675, rel=1e-14)


def test_periodic_verdicts_reuse_a_given_monodromy():
    prob = get_case("orbit-unstable").problem()
    mono = ode_monodromy(prob)
    assert periodic_verdicts(mono) == periodic_verdicts(ode_monodromy(prob))
    inv = check_determining_invariance(prob, nodes=16, monodromy=mono)
    assert inv == check_determining_invariance(prob, nodes=16)
    other = get_case("orbit-neutral").problem()
    with pytest.raises(InputError, match="different problem"):
        check_determining_invariance(other, nodes=16, monodromy=mono)


def test_periodic_verdicts_compute_common_eigenpairs_once(monkeypatch):
    calls = []
    original = periodic.common_eigenpair

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(periodic, "common_eigenpair", counted)
    verdicts = periodic_verdicts(ode_monodromy(get_case("orbit-unstable").problem()))
    assert len(calls) == 1
    assert [v.witness is not None for v in verdicts[1:]] == [True, True]


def test_periodic_verdicts_abstain_at_unit_multiplier():
    prob = get_case("orbit-neutral").problem()
    verdicts = periodic_verdicts(ode_monodromy(prob))
    assert all(not v.excluded for v in verdicts)
    # the odd-number rule failed specifically on the multiplier-1 premise
    assert not verdicts[0].hypotheses[0].passed
