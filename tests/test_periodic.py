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
from hypothesis import example, given, settings
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
from pyrastab.errors import InputError, NumericalError
from pyrastab.fields import ConstantCoefficient, TrigCoefficient
from pyrastab.linalg import cluster_multiplicity
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


def _constant_stages(a, steps):
    """``_rk4`` stage samples of a constant coefficient over ``steps`` steps."""
    return np.broadcast_to(a, (steps + 1,) + a.shape), np.broadcast_to(a, (steps,) + a.shape)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)
def test_long_sourced_march_does_not_drift():
    # with rows = 1 (M = 1) and constant A and G the sourced march is RK4 on
    # [Y; I]' = [[A, G], [0, 0]] [Y; I], so over N steps it is R(h Ã)^N
    # applied to [Y0; I]; the reference is that power in long double
    prob = get_case("center-periodic").problem()
    a = prob.coefficient_at(0.0)
    g = np.array([[0.3, -0.2], [0.1, 0.4]])
    steps = 16384
    times = np.linspace(0.0, prob.period, steps + 1)
    stages = _constant_stages(a, steps)
    y0 = np.eye(2)
    ones = (lambda t: np.ones((len(t), 1)), g)
    got = periodic._rk4(times, stages, y0, [steps], source=ones)[0]
    augmented = np.block([[a, g], [np.zeros((2, 4))]])
    z = (prob.period / steps * augmented).astype(np.longdouble)
    start = np.vstack([y0, np.eye(2)]).astype(np.longdouble)
    expect = (np.linalg.matrix_power(_rk4_stability(z), steps) @ start)[:2].astype(float)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


# an element budget that cuts the test marches into blocks of 14 to 256
# steps, so that a stage-loop reference can follow them across block edges
_SMALL_BUDGET = 256


def _small_block(y0, with_source):
    """``_rk4``'s block length for Y shaped like y0 under _SMALL_BUDGET."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
        return periodic._block_steps(y0, with_source)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("with_source", [False, True])
def test_rk4_raises_when_the_march_blows_up(with_source, monkeypatch):
    # R(hA) ~ 5e4 per step for a block and 44 steps: far past the double range
    monkeypatch.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
    block = periodic._block_steps(np.eye(2), with_source)
    steps = block + 44
    times = np.linspace(0.0, 1.0, steps + 1)
    a = 1e4 * np.eye(2)
    stages = _constant_stages(a, steps)
    source = (lambda t: np.ones((len(t), 1)), np.eye(2)) if with_source else None
    with pytest.raises(NumericalError, match="RK4 march blew up"):
        periodic._rk4(times, stages, np.eye(2), [0, block, steps], source=source)


@st.composite
def _march_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    with_source = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    block = _small_block(np.zeros((n, m * n if with_source else n)), with_source)
    steps = draw(st.integers(block + 1, 2 * block + 40))
    pattern = draw(st.sampled_from(["scattered", "every", "runs"]))
    if pattern == "every":
        # every grid index, as ode_monodromy keeps them
        keep = list(range(steps + 1))
    elif pattern == "runs":
        # consecutive indices on both sides of each block edge: one-step
        # segments for the sourced march
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
    return n, m, with_source, seed, steps, keep


@settings(max_examples=75, deadline=None)
@given(_march_cases())
def test_rk4_matches_stage_loop_across_blocks(case):
    n, m, with_source, seed, steps, keep = case
    rng = np.random.default_rng(seed)
    period = rng.uniform(0.5, 2.0)
    coeff = TrigCoefficient(rng.uniform(-1.0, 1.0, (rng.integers(1, 6), n, n)), period)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, steps))])
    times *= period / times[-1]
    stages = periodic._stage_coefficients(coeff.batch, times)
    freq, phase = rng.uniform(0.0, 3.0, m), rng.uniform(0.0, 2 * np.pi, m)
    g = rng.uniform(-1.0, 1.0, (n, n))

    def rows(t):
        return np.cos(np.outer(t, freq) + phase)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
        if with_source:
            y0 = rng.uniform(-1.0, 1.0, (n, m * n))
            got = periodic._rk4(times, stages, y0, keep, source=(rows, g))
            ref = _stage_loop(coeff, lambda t: np.kron(rows(np.array([t]))[0], g), times, y0)
        else:
            y0 = rng.uniform(-1.0, 1.0, (n, n))
            got = periodic._rk4(times, stages, y0, keep)
            ref = _stage_loop(coeff, lambda t: 0.0, times, y0)
    ref = ref[keep]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rk4_matches_stage_loop_with_a_many_mode_coefficient(monkeypatch):
    # 300 samples give 151 modes, so the coefficient's phase table is built
    # in two levels (b = 12); the march still matches the textbook loop
    rng = np.random.default_rng(8)
    n, m, period = 2, 5, 1.3
    y0 = rng.uniform(-1.0, 1.0, (n, m * n))
    monkeypatch.setattr(periodic, "_BUDGET", _SMALL_BUDGET)
    block = periodic._block_steps(y0, True)
    steps = 8 * block + 37
    coeff = TrigCoefficient(rng.uniform(-1.0, 1.0, (300, n, n)), period)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, steps))])
    times *= period / times[-1]
    stages = periodic._stage_coefficients(coeff.batch, times)
    freq, phase = rng.uniform(0.0, 3.0, m), rng.uniform(0.0, 2 * np.pi, m)
    g = rng.uniform(-1.0, 1.0, (n, n))

    def rows(t):
        return np.cos(np.outer(t, freq) + phase)

    keep = [0, block, steps]
    got = periodic._rk4(times, stages, y0, keep, source=(rows, g))
    ref = _stage_loop(coeff, lambda t: np.kron(rows(np.array([t]))[0], g), times, y0)[keep]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("with_source", [False, True])
def test_march_memory_does_not_grow_with_the_step_count(with_source):
    # blocks are cut to a fixed element budget, so a march four times as
    # long peaks at about the same allocation: only the kept snapshots
    # are stored, and every per-step array lives for one block
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y0 = np.eye(2)
    source = (lambda t: np.ones((len(t), 1)), np.eye(2)) if with_source else None
    block = periodic._block_steps(y0, with_source)

    def peak(steps):
        times = np.linspace(0.0, 1.0, steps + 1)
        stages = _constant_stages(a, steps)
        tracemalloc.start()
        try:
            periodic._rk4(times, stages, y0, [steps], source=source)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(3 * block + 5), peak(12 * block + 20)
    assert long <= 1.1 * short
    # and a block's own temporaries are a few copies of the budget
    assert short <= 16 * 8 * periodic._BUDGET


def _sequential_composites(d, suffix, ends=None):
    """The composites of ``_composites`` one step at a time: D1 then D2 is
    D1 + D2 + D2 D1."""
    out = np.empty_like(d)
    acc = np.zeros_like(d[0])
    if not suffix:
        for k in range(len(d)):
            acc = acc + d[k] + d[k] @ acc
            out[k] = acc
        return out
    ends = {len(d)} if ends is None else set(ends)
    for k in range(len(d) - 1, -1, -1):
        if k + 1 in ends:
            acc = np.zeros_like(d[0])
        acc = d[k] + acc + acc @ d[k]
        out[k] = acc
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["prefix", "suffix", "segments"]),
)
@example(2, 1, 0, "segments")
@example(2, 256, 1, "segments")
@example(2, 257, 2, "prefix")
def test_two_level_scan_matches_sequential_composition(n, length, seed, kind):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-0.2, 0.2, (length, n, n))
    ends = None
    if kind == "segments":
        # ascending exclusive ends with the last at ``length``; runs of
        # consecutive ends make one-step segments
        picks = rng.integers(1, length + 1, rng.integers(0, 8))
        first = rng.integers(1, length + 1)
        picks = np.concatenate([picks, np.arange(first, min(first + 3, length + 1))])
        ends = np.union1d(picks, [length])
    got = periodic._composites(d, kind != "prefix", ends)
    ref = _sequential_composites(d, kind != "prefix", ends)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def _einsum_source_maps(h, am, a1, g, rows, rows_mid):
    """Step offsets by one einsum over gain-free (S, 3, n, n) factors and
    a reshape copy, with G applied to each contracted block."""
    n = g.shape[0]
    eye = np.eye(n)
    h = h[:, None, None]
    am2 = am @ am
    m0 = eye + h * am + (0.5 * h * h) * am2 + (0.25 * h**3) * (a1 @ am2)
    mm = 4.0 * eye + h * (am + a1) + (0.5 * h * h) * (a1 @ am)
    factors = np.stack([m0, mm, np.broadcast_to(eye, m0.shape)], axis=1)
    ell = np.stack([rows[:-1], rows_mid, rows[1:]], axis=1) * (h / 6.0)
    q = np.einsum("ksac,ksj->kjac", factors, ell, optimize=True) @ g
    return q.transpose(0, 2, 1, 3).reshape(len(h), n, -1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(2, 40),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
@example(1, 2, 1, 969)  # the three summands cancel: the error is 1.5e-15 of the result
def test_source_maps_match_einsum_reference(n, m, steps, seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(1e-3, 0.5, steps)
    am, a1 = rng.uniform(-2.0, 2.0, (2, steps, n, n))
    g = rng.uniform(-1.0, 1.0, (n, n))
    rows, rows_mid = rng.uniform(-1.0, 1.0, (steps + 1, m)), rng.uniform(-1.0, 1.0, (steps, m))
    # the per-step offsets rebuilt from the gain-free factors and the rows:
    # block j of Q[k] is (sum_s L[k, s, j] F[k, s]) G with F[k, 2] = h/6 I
    f0, fm = periodic._source_maps(h, am, a1)
    assert f0.shape == fm.shape == (steps, n, n)
    f1 = (h / 6.0)[:, None, None] * np.eye(n)
    ell = np.stack([rows[:-1], rows_mid, rows[1:]], axis=1)
    factors = np.stack([f0, fm, f1], axis=1)
    got = np.array([sum(np.kron(ell[k, s], factors[k, s] @ g) for s in range(3))
                    for k in range(steps)])
    ref = _einsum_source_maps(h, am, a1, g, rows, rows_mid)
    assert got.shape == ref.shape == (steps, n, m * n)
    # rounding is relative to the summands, which may cancel in the result
    size = max(np.max(sum(np.abs(np.kron(ell[k, s], factors[k, s] @ g)) for s in range(3)))
               for k in range(steps))
    assert np.max(np.abs(got - ref)) <= 1e-15 * size


def test_dde_stepped_form_matches_stage_loop_reference():
    from pyrastab.chebyshev import barycentric_weights, interp_row, lobatto_nodes

    prob = get_case("trig-periodic").problem()
    nodes, steps, period = 6, 64, prob.period
    gain = prob.feedback.gain
    theta = lobatto_nodes(nodes, -period, 0.0)
    weights = barycentric_weights(nodes)
    marks = period + lobatto_nodes(2 * nodes - 1, -period, 0.0)
    times = np.union1d(np.linspace(0.0, period, steps + 1), marks)
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
    idx = [int(np.argmin(np.abs(times - m))) for m in marks[::2]]
    ref = np.concatenate([u[i] for i in idx])
    # a grid this coarse fails the cross-check; only the stepped form is compared
    loose = DEFAULT.replace(tol_xcheck=1.0)
    got = dde_monodromy(prob, nodes=nodes, tol=loose, steps=steps).matrix_stepped
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    for x, y in ((a.matrix, b.matrix), (a.matrix_stepped, b.matrix_stepped)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))
    assert b.cross_residual == pytest.approx(a.cross_residual, abs=1e-12)


@pytest.mark.parametrize("name", ["orbit-neutral", "trig-periodic"])
def test_grid_sampling_matches_the_per_time_path(name):
    # a TrigCoefficient is sampled on the march's uniform grid by one inverse
    # FFT; wrapped as a plain callable it is sampled one time at a time
    prob = get_case(name).problem()
    coeff = prob.coefficient
    plain = _periodic(lambda t: coeff(t), prob.period, prob.feedback.gain)
    assert plain.coefficient_on_grid(64) is None
    a, b = ode_monodromy(prob).matrix, ode_monodromy(plain).matrix
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    a, b = dde_monodromy(prob, nodes=16), dde_monodromy(plain, nodes=16)
    for x, y in ((a.matrix, b.matrix), (a.matrix_stepped, b.matrix_stepped)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))


def test_stage_coefficients_sample_only_the_off_grid_times():
    # on a delay grid, base points that survive the marks and the midpoints
    # between two of them are read from the uniform samples; the marks that
    # replaced or sit between base points, and the midpoints beside them,
    # go through coefficient_on
    prob = get_case("orbit-neutral").problem()
    period, steps, nodes = prob.period, 128, 8
    marks = period + lobatto_nodes(2 * nodes - 1, -period, 0.0)
    times = periodic._aligned_times(marks, period, steps)
    base = np.linspace(0.0, period, steps + 1)
    sampled = []

    def coefficient_on(t):
        sampled.extend(t)
        return prob.coefficient_on(t)

    uniform = prob.coefficient_on_grid(2 * steps)
    got = periodic._stage_coefficients(coefficient_on, times, uniform)
    ref = periodic._stage_coefficients(prob.coefficient_on, times)
    for x, y in zip(got, ref):
        assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))
    on = np.isin(times, base)
    mids = times[:-1] + 0.5 * np.diff(times)
    off_mids = mids[~(on[:-1] & on[1:])]
    assert sorted(sampled) == sorted([*times[~on], *off_mids])
    # every mark but the ends is off the base grid here, and costs at most
    # itself and the two midpoints beside it
    assert 0 < len(sampled) <= 3 * len(marks)


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
