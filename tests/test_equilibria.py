"""Characteristic spectra, exclusion rules, Hopf curves, and gain loci.

Scalar root oracles come from bisection on the real root equation
m = a + k (1 - exp(-m T)) and from every Lambert W branch of its complex
form, both independent of the contour-integral machinery under test.
Two-dimensional rotation blocks are checked against their complex
scalarization.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pyrastab import equilibria, reports, rootfinding
from pyrastab.benchmarks import case_names, get_case
from pyrastab.equilibria import (
    _assign_traces,
    _expanded_positions,
    _spacing_for,
    CharacteristicMatrix,
    Region,
    characteristic_matrix,
    check_resonance_invariance,
    common_eigenpair,
    continuation,
    count_roots,
    critical_gain,
    default_region,
    eigenvalue_locus,
    equilibrium_verdicts,
    find_roots,
    GainPath,
    homotopy_trace,
    hopf_curves,
    matched_movement,
    real_spectrum_hypothesis,
    reduced_root,
    resonating_center,
    scalar_characteristic,
    scalar_dominant_root,
    unstable_count_for_gain,
)
from pyrastab.errors import (
    ContinuationError, CrossCheckError, InputError, NumericalError, RootCountError,
)
from pyrastab.linalg import kernel_basis, spectral_norm
from pyrastab.tolerances import DEFAULT
from pyrastab.fields import ConstantCoefficient, LinearField
from pyrastab.periodic import dde_monodromy, multipliers, ode_monodromy, periodic_verdicts
from pyrastab.problems import DelayFeedback, EquilibriumProblem, PeriodicLinearProblem
from pyrastab.rootfinding import _boundary_vertices
from pyrastab.verdicts import Hypothesis, Verdict


def _real_root_oracle(a, k, delay):
    hi = a + 2 * abs(k) + 1.0
    return scipy.optimize.brentq(
        lambda m: m - a - k * (1.0 - np.exp(-m * delay)), 0.0, hi, xtol=1e-15
    )


def _branch_roots(rate, gain, delay, region):
    """Every root of m = rate + gain (1 - exp(-m T)) in ``region``'s main
    window, one per Lambert W branch that reaches it: the imaginary part of
    branch b grows like 2 pi b / T."""
    if gain == 0:
        return [complex(rate)] if region.re_min < rate <= region.re_max else []
    x = -gain * delay * np.exp(-(rate + gain) * delay)
    reach = int(np.ceil(region.im_max * delay / (2 * np.pi))) + 2
    roots = (rate + gain + scipy.special.lambertw(x, b) / delay for b in range(-reach, reach + 1))
    return [
        complex(m) for m in roots
        if region.re_min < m.real <= region.re_max and abs(m.imag) <= region.im_max
    ]


def _equilibrium(jac, gain, delay):
    jac = np.asarray(jac, dtype=float)
    return EquilibriumProblem(
        LinearField(jac), np.zeros(jac.shape[0]), DelayFeedback(gain, delay)
    )


# --- characteristic matrix ---------------------------------------------------


def test_characteristic_matrix_value_and_convention():
    # the difference feedback contributes alpha (1 - exp(-lambda T)) K
    # with a minus sign in Delta = lambda I - J - ...
    j = np.array([[0.05]])
    k = np.array([[0.3]])
    cm = CharacteristicMatrix(j, k, 2.0)
    lam = 0.4 + 0.2j
    expect = lam - 0.05 - 0.3 * (1 - np.exp(-lam * 2.0))
    assert cm.det_batch([lam])[0] == pytest.approx(expect, rel=1e-15)
    # at a resonant point the feedback term vanishes entirely
    res = 1j * np.pi  # 2 pi i / T with T = 2
    assert cm.det_batch([res])[0] == pytest.approx(res - 0.05, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dlog_is_the_jacobi_trace_bit_for_bit(n, seed, complex_j, complex_k):
    # dlog shares exp(-lambda T) and the identity between Delta and Delta';
    # it must still round exactly as Delta from value and
    # Delta' = I - alpha T exp(-lambda T) K built here
    rng = np.random.default_rng(seed)
    j = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_j else 0.0)
    k = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_k else 0.0)
    cm = CharacteristicMatrix(j, k, rng.uniform(0.1, 10.0), rng.uniform(-2.0, 2.0))
    for lam in rng.uniform(-3.0, 3.0, 4) + 1j * rng.uniform(-20.0, 20.0, 4):
        dvalue = np.eye(n) - cm.alpha * cm.delay * np.exp(-complex(lam) * cm.delay) * cm.gain
        expect = complex(np.trace(np.linalg.solve(cm.value(lam), dvalue)))
        assert cm.dlog(lam) == expect


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("complex_k", [False, True])
def test_value_stack_is_the_formula_bit_for_bit(n, complex_k):
    # Delta is built as -J - c K plus its diagonal (lam - J_ii) - c K_ii,
    # c = alpha (1 - exp(-lam T)); it must round exactly as
    # lam I - J - alpha (1 - exp(-lam T)) K, for a stack and for the scalar
    # lam that dlog passes
    rng = np.random.default_rng(n)
    j = rng.normal(size=(n, n))
    k = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_k else 0.0)
    cm = CharacteristicMatrix(j, k, 2.0 * np.pi, -0.7)
    lams = np.concatenate([[0.0, 1.5, -2j], rng.normal(size=150) + 10j * rng.normal(size=150)])
    stack = lams.astype(complex)[:, None, None]
    decay = np.exp(-stack * cm.delay)
    assert np.array_equal(cm._value(stack, decay),
                          stack * np.eye(n) - cm.jacobian - cm.alpha * (1.0 - decay) * cm.gain)
    for lam in lams[:8]:
        lam = complex(lam)
        decay = np.exp(-lam * cm.delay)
        assert np.array_equal(cm._value(lam, decay),
                              lam * np.eye(n) - cm.jacobian - cm.alpha * (1.0 - decay) * cm.gain)


def test_characteristic_matrix_validation():
    with pytest.raises(InputError):
        CharacteristicMatrix(np.eye(2), np.eye(3), 1.0)
    with pytest.raises(InputError):
        CharacteristicMatrix(np.eye(2), np.eye(2), -1.0)
    with pytest.raises(InputError):
        CharacteristicMatrix(np.zeros((2, 3)), np.eye(2), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["jacobian", "gain"])
def test_characteristic_matrix_refuses_a_non_finite_imaginary_part(entry, bad):
    # a finite real part with a nan or inf imaginary part is not finite
    mats = {"jacobian": np.array([[0.05]]), "gain": np.array([[0.3]])}
    mats[entry] = mats[entry] + complex(0.0, bad)  # 1j * bad would spoil the real part
    with pytest.raises(InputError, match="^jacobian and gain must be finite$"):
        CharacteristicMatrix(mats["jacobian"], mats["gain"], 1.0)


def test_residual_is_small_exactly_at_roots():
    cm = scalar_characteristic(0.05, 0.3, 2.0)
    m = _real_root_oracle(0.05, 0.3, 2.0)
    assert cm.residual(m) < 1e-14
    assert cm.residual(m + 0.1) > 1e-3


# --- scalar root extraction against bisection oracles ------------------------


def test_scalar_dominant_root_corpus():
    # the closed form against the half-plane search on real and complex
    # gains and rates of both signs; of a real problem's conjugate pair
    # both report the member with Im <= 0
    rng = np.random.default_rng(1204)
    compared = 0
    for i in range(300):
        rate = float(rng.uniform(-1.5, 1.5))
        gain = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0) if i % 2 else 0.0)
        delay = float(rng.uniform(0.3, 7.0))
        got = scalar_dominant_root(rate, gain, delay)
        if rate > 0 and gain.imag == 0:
            assert got == pytest.approx(_real_root_oracle(rate, gain.real, delay), abs=1e-10)
        try:
            dom = find_roots(scalar_characteristic(rate, gain, delay)).dominant
        except RootCountError:  # pinned below for the draws known to fail
            continue
        compared += 1
        if dom is None:
            assert got is None, (rate, gain, delay)
            continue
        want = dom.value.conjugate() if gain.imag == 0 and dom.value.imag > 0 else dom.value
        assert abs(got - want) <= 1e-12 * abs(want), (rate, gain, delay)
    assert compared >= 295


# a second root at 5.39e-7 + 0.2564i, just right of the axis
_COMPLEX_GAIN_DRAW = (-0.752, 0.5990557298773392 - 0.5259982549487698j, 4.069,
                      0.16459023165901276 - 0.7822788468661299j)
# the other real root is 0.22288614400306234
_REAL_GAIN_DRAW = (-0.22939416170997928, 0.7523013536340155, 4.1244571396400564,
                   0.33013482777017694)
_MISSED_DRAWS = pytest.mark.parametrize(
    "rate, gain, delay, dominant",
    [_COMPLEX_GAIN_DRAW, _REAL_GAIN_DRAW],
    ids=["complex-gain", "real-gain"],
)


@_MISSED_DRAWS
def test_scalar_dominant_root_on_draws_the_half_plane_search_misses(rate, gain, delay, dominant):
    m = scalar_dominant_root(rate, gain, delay)
    assert abs(m - rate - gain * (1.0 - np.exp(-m * delay))) <= 1e-14 * abs(m)
    cm = scalar_characteristic(rate, gain, delay)
    roots = _branch_roots(rate, gain, delay, default_region(cm))
    assert len(roots) == count_roots(cm) == 2
    assert m == pytest.approx(max(roots, key=lambda z: z.real), rel=1e-14)
    assert m == pytest.approx(dominant, rel=1e-14)


def test_scalar_double_root_multiplicity():
    # tangency constructed analytically: both det and det' vanish at m
    m, delay = 0.3, 1.0
    k = np.exp(m * delay) / delay
    a = m - k * (1.0 - np.exp(-m * delay))
    rep = find_roots(scalar_characteristic(a, k, delay))
    dbl = [r for r in rep.roots if abs(r.value - m) < 1e-6]
    assert len(dbl) == 1
    assert dbl[0].algebraic == 2


def test_count_matches_extraction():
    cm = scalar_characteristic(0.6, 1.1, 2.0)
    rep = find_roots(cm)
    assert count_roots(cm) == rep.count


def test_rotation_block_matches_complex_scalarization():
    sigma, omega, kappa, delay = 0.08, 1.0, 0.35, 2 * np.pi
    j = np.array([[sigma, -omega], [omega, sigma]])
    cm2 = CharacteristicMatrix(j, kappa * np.eye(2), delay)
    region = default_region(cm2)
    rep2 = find_roots(cm2, region)
    got = sorted(
        (r.value for r in rep2.roots), key=lambda z: (round(z.real, 9), z.imag)
    )
    expect = []
    for rate in (sigma + 1j * omega, sigma - 1j * omega):
        rep1 = find_roots(scalar_characteristic(rate, kappa, delay), region)
        expect.extend(r.value for r in rep1.roots)
    expect.sort(key=lambda z: (round(z.real, 9), z.imag))
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g == pytest.approx(e, abs=1e-9)


def test_default_region_contains_every_unstable_root():
    rng = np.random.default_rng(77)
    for _ in range(10):
        j = rng.standard_normal((3, 3))
        k = rng.standard_normal((3, 3))
        cm = CharacteristicMatrix(j, k, 1.5)
        region = default_region(cm)
        rep = find_roots(cm, region)
        for r in rep.roots:
            assert r.value.real < region.re_max - 0.5  # never pinned at the cap


# --- marginal roots on the imaginary axis -------------------------------------

_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def _marginal(rep):
    return [(complex(round(r.value.real, 9), round(r.value.imag, 9)), r.algebraic, r.geometric)
            for r in rep.marginal]


def test_find_roots_reports_the_resonating_center():
    # +-i = 2 pi i / T is a root for every gain: the feedback vanishes there
    rep = find_roots(CharacteristicMatrix(_ROTATION, 0.3 * np.eye(2), 2 * np.pi))
    assert _marginal(rep) == [(-1j, 1, 1), (1j, 1, 1)]
    assert all(r.value.real > 0.2 for r in rep.roots)


def test_find_roots_keeps_the_resonating_center_dimension():
    j = np.kron(np.eye(2), _ROTATION)
    cm = CharacteristicMatrix(j, 0.3 * np.eye(4), 2 * np.pi)
    assert _marginal(find_roots(cm)) == [(-1j, 2, 2), (1j, 2, 2)]
    assert check_resonance_invariance(cm, 1).dim_controlled == 2


def test_find_roots_reports_a_defective_root_at_zero():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = find_roots(CharacteristicMatrix(j, 0.3 * np.eye(2), 2 * np.pi))
    assert _marginal(rep) == [(0j, 2, 1)]


def test_homotopy_trace_keeps_the_resonating_center_marginal():
    tr = homotopy_trace(CharacteristicMatrix(_ROTATION, 0.3 * np.eye(2), 2 * np.pi))
    assert tr.alphas[0] == 0.0 and tr.alphas[-1] == 1.0
    for _, rep in tr.steps:
        assert _marginal(rep) == [(-1j, 1, 1), (1j, 1, 1)]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            *[st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)] * 2
        )
    )
)
@example(([2.2250738585e-313, 0.0, 0.0, 2.0**-7], [0.0] * 4))
@example(([0.0, 1.0, 2.6738952209221466e-103, 0.0], [0.0] * 4))
@example(([0.0, 1.0, 2.6738952209221466e-103, 9.638429534905124e-159], [1.0, 0.0, 0.0, 0.0]))
@example(([0.0, 0.0, 0.0, 4.6141713031849464e-07], [0.5, 0.125, -0.5, 0.0]))
@example(([0.0, 1e-07, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]))
@example(([0.0, 1.0, 1.6711453885254078e-130, 1.6711453885254078e-130], [0.5, 0.0, 0.0, 0.0]))
@example(([0.0, 1.0, 1.1754943508222875e-38, 0.0], [0.0, 0.0, 0.0, 0.1875]))
@example(([0.3577088485641282, -0.4911775980879053, 0.8089295247038288, 0.3577088485641282],) * 2)
@example(([6.161423312112707e-20, -5.594516643145734e-20, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]))
# the window's seeds must not depend on the band: a generator order widened
# for the band moved this draw's root by one bit
@example(([0.0, 1.0, 0.89453125, -0.8984375], [0.0, 0.0, 0.0, 1.0]))
def test_band_scan_leaves_the_roots_unchanged(entries):
    n = int(round(np.sqrt(len(entries[0]))))
    j, k = (np.reshape(e, (n, n)) for e in entries)
    cm = CharacteristicMatrix(j, k, 2 * np.pi)
    try:
        plain = find_roots(cm, default_region(cm))
    except RootCountError:
        assume(False)  # a root inside the main window's certification gap
    assert find_roots(cm).roots == plain.roots


def test_band_certifies_a_root_where_the_inverse_overflows():
    # a falsifying draw of the band scan (the first example above): the
    # subdivision's Newton started at the band's centre 0, a subnormal away
    # from a root, where Delta(0)^-1 overflows
    j = np.diag([2.2250738585e-313, 2.0**-7])
    rep = find_roots(CharacteristicMatrix(j, np.zeros((2, 2)), 2 * np.pi))
    assert [r.value for r in rep.roots] == pytest.approx([2.0**-7], abs=1e-15)
    [root] = rep.marginal
    assert root.value == pytest.approx(0.0, abs=1e-12)
    assert (root.algebraic, root.geometric) == (1, 1)


@pytest.mark.parametrize("rate", [1e-6, 1e-8])
def test_find_roots_certifies_a_root_closer_to_the_window_edge_than_its_box(rate):
    # the root lies just right of the main window's left edge at Re = 1e-9,
    # inside the usual certification box of half-width 1e-7 scale = 1.4e-6
    rep = find_roots(CharacteristicMatrix(np.array([[rate]]), np.zeros((1, 1)), 2 * np.pi))
    assert [(r.value, r.algebraic) for r in rep.roots] == [(pytest.approx(rate, rel=1e-9), 1)]


@pytest.mark.parametrize(
    "j, k, y",
    [
        ([[1.262e-96, 0.28599792383894607], [2.220446049250313e-16, -1.54e-238]],
         [[-1.0, 0.0], [6.59e-251, 0.6590482661680355]], 1.6661429921349704e-09),
        ([[6.161423312112707e-20, -5.594516643145734e-20], [-1.0, 0.0]],
         [[1.0, 0.0], [0.0, 0.0]], 1.0290423116491816e-10),
    ],
    ids=["1.7e-9", "1.0e-10"],
)
def test_band_keeps_both_roots_of_a_pair_split_at_im_zero(j, k, y):
    # the roots +-y i are closer together than the usual certification box,
    # and the subdivision's first cut at Im = 0 passed between them; both are
    # reported, not one cluster
    rep = find_roots(CharacteristicMatrix(np.array(j), np.array(k), 2 * np.pi))
    assert [(r.value.imag, r.algebraic) for r in rep.marginal] == [
        (pytest.approx(-y, rel=1e-6), 1), (pytest.approx(y, rel=1e-6), 1)
    ]


def test_band_certifies_a_double_root_at_zero():
    # a falsifying draw of the band scan above: J is a Jordan block at 0 up
    # to 6.66e-168, so the band holds a double root 1.4e-4 from its long edges
    # and dlog vanishes at its centre, where the subdivision's Newton started
    j = np.array([[0.0, 1.0], [6.66e-168, 0.0]])
    cm = CharacteristicMatrix(j, np.zeros((2, 2)), 2 * np.pi)
    [root] = find_roots(cm).marginal
    assert root.value == pytest.approx(0.0, abs=1e-9)
    assert (root.algebraic, root.geometric) == (2, 1)


def test_band_separates_a_root_at_zero_from_one_just_right_of_it():
    # a second falsifying draw of the band scan: 0 is marginal and 2^-14 is
    # unstable, closer together than one boundary step of the band's edges,
    # so only cuts next to the certified root at 0 counted the band correctly;
    # and a cut passed within the usual certification box of 2^-14
    cm = CharacteristicMatrix(np.diag([0.0, 2.0**-14]), np.zeros((2, 2)), 2 * np.pi)
    rep = find_roots(cm)
    assert [r.value for r in rep.roots] == pytest.approx([2.0**-14], abs=1e-12)
    [root] = rep.marginal
    assert root.value == pytest.approx(0.0, abs=1e-9)
    assert (root.algebraic, rep.roots[0].algebraic) == (1, 1)


@_MISSED_DRAWS
def test_half_plane_search_resolves_the_missed_scalar_draws(rate, gain, delay, dominant):
    # the complex-gain draw has a root 5.39e-7 right of the main window's
    # left edge, closer than the usual certification box; on the real-gain
    # draw the subdivision failed at the main window's split at Im = 0,
    # which passes through both real roots
    cm = scalar_characteristic(rate, gain, delay)
    rep = find_roots(cm)
    assert rep.count == 2
    assert rep.dominant.value == pytest.approx(dominant, rel=1e-12)
    want = sorted(_branch_roots(rate, gain, delay, default_region(cm)), key=lambda z: -z.real)
    assert [r.value for r in rep.roots] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("rate, unstable", [(3e6, [3000000.1]), (-3e6, [])])
def test_band_stays_out_of_the_deep_left_half_plane(rate, unstable):
    # at scale 3e6 a band 1e-5 scale wide reached Re = -30, where
    # |exp(-lambda T)| ~ e^30 turned faster than the edges were sampled
    # and the winding count came out negative
    rep = find_roots(CharacteristicMatrix(np.array([[rate]]), np.array([[0.1]]), 1.0))
    assert [r.value for r in rep.roots] == pytest.approx(unstable, abs=1e-6)
    assert all(r.algebraic == 1 for r in rep.roots) and rep.marginal == ()


# --- roots seeded by the collocated generator's eigenvalues -------------------

_EQUILIBRIUM_CASES = [name for name in case_names()
                      if get_case(name).document()["kind"] == "equilibrium"]


def _random_draw(n, seed):
    # the benchmark's random problems: J = N(0, 1) / sqrt(n), K = 0.3 I, T = 2 pi
    jac = np.random.default_rng(seed).normal(size=(n, n)) / np.sqrt(n)
    return CharacteristicMatrix(jac, 0.3 * np.eye(n), 2 * np.pi)


@pytest.fixture
def orders(monkeypatch):
    """The collocation orders whose eigenvalues the test computed, in turn."""
    used = []
    original = equilibria._generator_eigenvalues

    def recorded(cm, order):
        used.append(order)
        return original(cm, order)

    monkeypatch.setattr(equilibria, "_generator_eigenvalues", recorded)
    return used


@pytest.fixture
def first_order_only(orders):
    # the seeds at the first order explain the count: no re-seeding
    yield
    assert len(orders) == 1, f"re-seeded at orders {orders}"


@pytest.mark.parametrize("name", _EQUILIBRIUM_CASES)
def test_seeds_explain_every_catalog_equilibrium(name, first_order_only):
    cm = characteristic_matrix(get_case(name).problem())
    assert find_roots(cm).count == count_roots(cm)


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 5, 10) for seed in (0, 1, 2)])
def test_seeds_explain_the_random_draws(n, seed, first_order_only):
    cm = _random_draw(n, seed)
    assert find_roots(cm).count == count_roots(cm)


def test_seeds_prove_the_aliased_count_at_n20(first_order_only):
    # the window's winding count aliases to 16 (ROADMAP item 1); the
    # certified boxes around the polished seeds hold 18 zeros
    with pytest.raises(RootCountError, match="aliased"):
        find_roots(_random_draw(20, 0))


def test_a_shortfall_re_seeds_from_doubled_orders(monkeypatch, orders):
    # a user region reaching left of the axis holds 40 roots of scalar-basic;
    # the first order, 68, seeds them all, and from order 8 the seeds fall
    # short until the order has doubled to 64
    cm = characteristic_matrix(get_case("scalar-basic").problem())
    region = Region(-2.0, 1.0, 20.0)
    want = find_roots(cm, region)
    assert orders == [68]
    orders.clear()
    monkeypatch.setattr(equilibria, "_generator_order", lambda cm, rect: 8)
    report = find_roots(cm, region)
    assert orders == [8, 16, 32, 64]
    assert report.count == count_roots(cm, region) == 40
    assert [r.algebraic for r in report.roots] == [r.algebraic for r in want.roots]
    values = [r.value for r in report.roots]
    assert values == pytest.approx([r.value for r in want.roots], abs=1e-12)
    assert all(v.conjugate() in values for v in values)


def test_real_gains_typed_complex_seed_in_real_arithmetic():
    # a gain path stores its gains as complex: the generator built in
    # complex arithmetic put real roots about 1e-19 below the axis, where
    # the seeds of a real problem are skipped
    real = CharacteristicMatrix(np.array([[0.05]]), np.array([[0.5]]), 2 * np.pi)
    typed = CharacteristicMatrix(np.array([[0.05]]), np.array([[0.5 + 0j]]), 2 * np.pi)
    order = equilibria._generator_order(real, default_region(real).rect())
    assert np.array_equal(equilibria._generator_eigenvalues(typed, order),
                          equilibria._generator_eigenvalues(real, order))


def test_find_roots_in_the_left_reaching_region_the_subdivision_could_not_split():
    # the subdivision found no admissible split line in this user region
    cm = CharacteristicMatrix(np.array([[-0.13, -0.47], [0.82, 0.53]]), -0.56 * np.eye(2),
                              2 * np.pi)
    region = Region(-0.53, 1.1, 33.5)
    report = find_roots(cm, region)
    assert report.count == count_roots(cm, region) == 64
    values = [r.value for r in report.roots]
    assert all(v.conjugate() in values for v in values)


def test_mirror_roots_are_exact_conjugates():
    # on the random draw n = 5, J1 the report listed +0.3629i before its
    # mirror: the order followed the last bit of the two real parts
    values = [r.value for r in find_roots(_random_draw(5, 1)).roots]
    assert values[0].imag == 0.0
    assert values[1] == values[2].conjugate()
    assert values[1].imag == pytest.approx(-0.3629, abs=1e-4)


def test_find_roots_counts_a_near_jordan_pair_in_the_main_window():
    # ROADMAP item 2: the subdivision found no admissible split line next to
    # the near-double real root at 0.2287
    cm = CharacteristicMatrix(np.array([[0.0, 1.0], [1e-8, 0.0]]), 0.3 * np.eye(2), 2 * np.pi)
    assert find_roots(cm).count == count_roots(cm) == 3


@pytest.mark.parametrize("rate", [3e6, 1e7])
def test_find_roots_resolves_a_large_real_root(rate):
    # ROADMAP item 2: sigma_min / max(1, sigma_max) of a 1 x 1 Delta near
    # 1e7 cannot fall below the spacing of doubles there (about 1.9e-9), so
    # the polished root failed tol_res = 1e-10; the backward error divides
    # by the size of Delta's terms instead.  exp(-lambda T) underflows at
    # the root, which is rate + 0.1 to double precision.
    cm = CharacteristicMatrix(np.array([[rate]]), np.array([[0.1]]), 1.0)
    rep = find_roots(cm)
    assert [(r.algebraic, r.geometric) for r in rep.roots] == [(1, 1)]
    assert rep.roots[0].value == pytest.approx(rate + 0.1, rel=1e-15, abs=0.0)
    assert rep.roots[0].residual == cm.residual(rep.roots[0].value) <= DEFAULT.tol_res


def test_residual_is_the_backward_error_over_the_term_sizes():
    jac = np.array([[0.0, 2.0], [-1.0, 0.5]])
    gain = np.array([[0.3, 0.0], [0.1, -0.2]])
    cm = CharacteristicMatrix(jac, gain, 1.5, alpha=-0.7)
    lam = 0.4 - 1.3j
    decay = np.exp(-lam * 1.5)
    size = abs(lam) + np.linalg.norm(jac) + 0.7 * (1.0 + abs(decay)) * np.linalg.norm(gain)
    sigma_min = np.linalg.svd(cm.value(lam), compute_uv=False)[-1]
    assert cm.residual(lam) == pytest.approx(sigma_min / size, rel=1e-14)
    # below unit size the denominator is 1
    tiny = CharacteristicMatrix(np.array([[1e-3]]), np.array([[1e-3]]), 1.0, alpha=0.5)
    assert tiny.residual(0.01) == pytest.approx(abs(tiny.value(0.01)[0, 0]), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.75, 0.875, 1.0])
def test_find_roots_on_the_draw_the_main_window_could_not_split(alpha):
    # the subdivision raised "no admissible split line" inside the main window
    rng = np.random.default_rng(3)
    jac = 0.3 * rng.normal(size=(3, 3))
    gain = 0.3 * rng.normal(size=(3, 3))
    cm = CharacteristicMatrix(jac, gain, 2 * np.pi, alpha)
    rep = find_roots(cm)
    assert rep.count == count_roots(cm) == 3
    assert all(r.algebraic == 1 for r in rep.roots)
    if alpha == 0.75:
        assert [r.value for r in rep.roots] == pytest.approx(
            [1.3879765172894556, 0.006605487222015712 - 0.047160422592672405j,
             0.006605487222015712 + 0.047160422592672405j], abs=1e-9)


_ENTRIES = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(_ENTRIES, min_size=n * n, max_size=n * n),
        st.one_of(st.lists(_ENTRIES, min_size=1, max_size=1),
                  st.lists(_ENTRIES, min_size=n * n, max_size=n * n)),
    ))
)
# the window's count reads 5 where the roots and the monodromy give 3, and
# find_roots refuses it
@example(([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
           1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
          [-0.5]))
def test_found_roots_match_the_count_and_the_monodromy(entries):
    # scalar and full gains: the certified total equals the window's winding
    # count and the number of delay multipliers outside the unit circle
    jac_entries, gain_entries = entries
    n = int(round(np.sqrt(len(jac_entries))))
    jac = np.reshape(jac_entries, (n, n)) / np.sqrt(n)
    gain = (gain_entries[0] * np.eye(n) if len(gain_entries) == 1
            else np.reshape(gain_entries, (n, n)) / np.sqrt(n))
    problem = PeriodicLinearProblem(ConstantCoefficient(jac), 2 * np.pi,
                                    DelayFeedback(gain, 2 * np.pi))
    try:
        report = multipliers(dde_monodromy(problem, nodes=24))
    except (CrossCheckError, np.linalg.LinAlgError):
        assume(False)  # the oracle's grid does not resolve this draw
    # a multiplier this close to the circle is a root on the axis, or too
    # close to it for 24 nodes to place
    assume(all(abs(abs(e.value) - 1.0) > 1e-3 for e in report.entries))
    cm = CharacteristicMatrix(jac, gain, 2 * np.pi)
    count = count_roots(cm)
    try:
        rep = find_roots(cm)
    except RootCountError:
        # find_roots refuses only where the window's winding count is wrong
        # (ROADMAP item 1), as the monodromy confirms
        assert count != report.outside_count
        return
    assert rep.count == count == report.outside_count
    values = [r.value for r in rep.all_roots]
    assert all(z.conjugate() in values for z in values)


# --- resonating centers -------------------------------------------------------


def test_resonating_center_dimensions():
    delay = 2 * np.pi
    # block diag: rotation at omega=1 (resonant for n=1), plus a sink
    j = np.zeros((3, 3))
    j[0, 1], j[1, 0] = -1.0, 1.0
    j[2, 2] = -0.5
    dim, basis = resonating_center(j, delay, 1)
    assert dim == 1
    assert basis.shape == (3, 1)
    target = 2j * np.pi / delay
    assert np.linalg.norm((target * np.eye(3) - j) @ basis) < 1e-12
    dim0, _ = resonating_center(j, delay, 0)
    assert dim0 == 0
    dim2, _ = resonating_center(j, delay, 2)
    assert dim2 == 0


def _near_scalar(value):
    """S (value I) S^-1: a multiple of the identity up to rounding."""
    s = np.random.default_rng(0).normal(size=(2, 2)) + 2.0 * np.eye(2)
    return s @ (value * np.eye(2)) @ np.linalg.inv(s)


def test_resonating_center_of_a_near_scalar_jacobian():
    # the shifted matrix is rounding noise, so a rank cutoff relative to it
    # alone finds no eigenspace; relative to max(1, ||J||) it finds both
    j = _near_scalar(1j)
    dim, _ = resonating_center(j, 2 * np.pi, 1)
    assert dim == 2
    inv = check_resonance_invariance(CharacteristicMatrix(j, 0.3 * np.eye(2), 2 * np.pi), 1)
    assert (inv.dim_uncontrolled, inv.dim_controlled) == (2, 2)


def test_resonance_invariance_random_gains():
    rng = np.random.default_rng(555)
    delay = 2 * np.pi
    j = np.zeros((4, 4))
    j[0, 1], j[1, 0] = -1.0, 1.0  # kernel dimension 1 at n = 1
    j[2, 2], j[3, 3] = 0.3, -0.9
    for _ in range(20):
        k = rng.standard_normal((4, 4))
        cm = CharacteristicMatrix(j, k, delay, alpha=float(rng.uniform(-2, 2)))
        inv = check_resonance_invariance(cm, 1)
        assert inv.dim_uncontrolled == 1
        assert inv.dim_controlled == 1
        assert inv.equal
        assert inv.point == pytest.approx(1j)


# --- exclusion rules ----------------------------------------------------------


def test_odd_number_excluded_for_scalar_growth():
    prob = _equilibrium([[0.05]], np.array([[0.7]]), 2 * np.pi)
    v = equilibrium_verdicts(prob)[0]
    assert v.rule == "odd-number"
    assert v.excluded
    assert v.witness == pytest.approx(0.05)
    # the real positive root promised by the parity argument is there
    m = _real_root_oracle(0.05, 0.7, 2 * np.pi)
    assert characteristic_matrix(prob).residual(m) < 1e-12


def test_odd_number_abstains_for_even_count():
    j = [[0.05, -1.0], [1.0, 0.05]]  # two unstable eigenvalues
    prob = _equilibrium(j, 0.2 * np.eye(2), 2 * np.pi)
    v = equilibrium_verdicts(prob)[0]
    assert not v.excluded


def test_odd_number_abstains_for_singular_jacobian():
    prob = _equilibrium(np.diag([1.0, 0.0]), 0.1 * np.eye(2), 1.0)
    v = equilibrium_verdicts(prob)[0]
    assert not v.excluded
    assert not v.hypotheses[0].passed


def test_commuting_real_spectrum_on_resonant_focus():
    sigma, kappa, delay = 0.05, 0.4, 2 * np.pi
    j = np.array([[sigma, -1.0], [1.0, sigma]])
    prob = _equilibrium(j, kappa * np.eye(2), delay)
    v = equilibrium_verdicts(prob)[1]
    assert v.rule == "commuting-real-spectrum"
    assert v.excluded
    # witness = real root of the reduced equation, shifted to the line
    m = _real_root_oracle(sigma, kappa, delay)
    assert v.witness == pytest.approx(complex(m, 1.0), abs=1e-10)


def test_commuting_rules_abstain_off_resonance():
    j = np.array([[0.05, -1.0], [1.0, 0.05]])
    prob = _equilibrium(j, 0.4 * np.eye(2), delay=3.0)  # omega T not in 2 pi Z
    verdicts = equilibrium_verdicts(prob)
    assert not verdicts[1].excluded
    assert not verdicts[2].excluded


def test_commuting_rules_abstain_for_noncommuting_gain():
    j = np.array([[0.05, -1.0], [1.0, 0.05]])
    gain = np.array([[0.3, 0.1], [0.0, 0.3]])
    prob = _equilibrium(j, gain, 2 * np.pi)
    verdicts = equilibrium_verdicts(prob)
    assert not verdicts[1].excluded
    assert not verdicts[2].excluded


def test_commuting_gain_excluded_with_rotation_gain():
    # gain with complex spectrum: the real-spectrum rule abstains but the
    # plain commuting rule still excludes
    j = np.array([[0.05, -1.0], [1.0, 0.05]])
    gain = np.array([[0.1, -0.25], [0.25, 0.1]])
    prob = _equilibrium(j, gain, 2 * np.pi)
    verdicts = equilibrium_verdicts(prob)
    assert not verdicts[1].excluded
    assert verdicts[2].excluded
    w = verdicts[2].witness
    assert w is not None and w.real > 0
    # the witness is a genuine root of the full characteristic matrix
    assert characteristic_matrix(prob).residual(w) < 1e-8


def test_verdict_dicts_are_auditable():
    prob = _equilibrium([[0.05]], np.array([[0.7]]), 2.0)
    v = equilibrium_verdicts(prob)[0]
    d = reports.to_jsonable(v)
    assert d["rule"] == "odd-number"
    assert d["outcome"] == "excluded"
    assert all("name" in h and "passed" in h for h in d["hypotheses"])
    assert "witness" in d


# --- the folded rules against the single-rule functions they replaced --------
#
# ``equilibrium_verdicts`` once called three single-rule functions, each
# recomputing the resonance search, the commutator and the restricted gain
# eigenvalues.  They are kept here as the oracle for the folded rules and
# the shared common-eigenvector reduction, with the root searches the
# witnesses once came from: bisection for a real gain, the half-plane
# search otherwise.


def _former_resonant_pairs(jacobian, delay, tol):
    eigs = np.linalg.eigvals(jacobian)
    scale = 1.0 + spectral_norm(jacobian)
    base = 2.0 * np.pi / delay
    n_max = int(np.ceil(2.0 * (5 + jacobian.shape[0])))
    hits = []
    for eig in eigs:
        if eig.real <= tol.tol_axis * scale:
            continue
        n = int(np.round(eig.imag / base))
        if abs(n) > n_max:
            continue
        if abs(eig.imag - n * base) <= tol.tol_res_match * scale:
            hits.append((complex(eig), n))
    hits.sort(key=lambda t: (-t[0].real, abs(t[1])))
    return hits


def _former_commutator_hypothesis(jacobian, gain, tol):
    denom = np.linalg.norm(jacobian) * np.linalg.norm(gain)
    comm = 0.0 if denom == 0.0 else float(np.linalg.norm(jacobian @ gain - gain @ jacobian) / denom)
    return Hypothesis(
        "gain commutes with the linearization",
        comm <= tol.tol_comm,
        f"relative commutator norm {comm:.3e}",
        value=comm,
        tolerance=tol.tol_comm,
    )


def _former_restricted_gain_eigenvalues(jacobian, gain, eig, tol):
    basis = kernel_basis(eig * np.eye(jacobian.shape[0]) - jacobian, tol.rank_factor)
    if basis.shape[1] == 0:
        raise NumericalError(f"no eigenspace found at {eig}")
    restricted = basis.conj().T @ gain @ basis
    return np.linalg.eigvals(restricted)


def _former_odd_number_verdict(problem, tol=DEFAULT):
    jac = problem.jacobian()
    eigs = np.linalg.eigvals(jac)
    scale = 1.0 + spectral_norm(jac)
    smallest = float(np.min(np.abs(eigs)))
    h_nonsing = Hypothesis(
        "linearization is nonsingular",
        smallest > tol.tol_axis * scale,
        f"smallest |eigenvalue| {smallest:.3e}",
        value=smallest,
        tolerance=tol.tol_axis * scale,
    )
    unstable = int(np.sum(eigs.real > tol.tol_axis * scale))
    h_odd = Hypothesis(
        "odd count of unstable eigenvalues",
        unstable % 2 == 1,
        f"{unstable} eigenvalue(s) with positive real part",
        value=float(unstable),
    )
    witness = None
    if h_nonsing.passed and h_odd.passed:
        witness = complex(eigs[np.argmax(eigs.real)])
    return Verdict.from_hypotheses("odd-number", (h_nonsing, h_odd), witness)


def _former_resonance_hypothesis(name, hits):
    return Hypothesis(
        name,
        bool(hits),
        (
            f"eigenvalue {hits[0][0]:.6g} matches n={hits[0][1]}"
            if hits
            else "no unstable eigenvalue with Im a multiple of 2 pi / T"
        ),
    )


def _former_commuting_real_spectrum_verdict(problem, tol=DEFAULT):
    jac = problem.jacobian()
    gain = problem.feedback.gain
    delay = problem.feedback.delay
    hits = _former_resonant_pairs(jac, delay, tol)
    h_res = _former_resonance_hypothesis("unstable eigenvalue on a resonant line", hits)
    h_comm = _former_commutator_hypothesis(jac, gain, tol)
    h_spec = real_spectrum_hypothesis(gain, tol)
    hyps = (h_res, h_comm, h_spec)
    if not all(h.passed for h in hyps):
        return Verdict.from_hypotheses("commuting-real-spectrum", hyps)
    eig, n = hits[0]
    ks = _former_restricted_gain_eigenvalues(jac, gain, eig, tol)
    k = float(ks[np.argmin(np.abs(ks.imag))].real)
    m = _real_root_oracle(eig.real, k, delay)
    witness = complex(m, 2.0 * np.pi * n / delay)
    return Verdict.from_hypotheses("commuting-real-spectrum", hyps, witness)


def _former_commuting_gain_verdict(problem, tol=DEFAULT):
    jac = problem.jacobian()
    gain = problem.feedback.gain
    delay = problem.feedback.delay
    hits = _former_resonant_pairs(jac, delay, tol)
    h_res = _former_resonance_hypothesis("unstable eigenvalue pair on resonant lines", hits)
    h_comm = _former_commutator_hypothesis(jac, gain, tol)
    hyps = (h_res, h_comm)
    if not all(h.passed for h in hyps):
        return Verdict.from_hypotheses("commuting-gain", hyps)
    eig, n = hits[0]
    witness = None
    try:
        ks = _former_restricted_gain_eigenvalues(jac, gain, eig, tol)
        cm = scalar_characteristic(eig.real, complex(ks[0]), delay)
        root = find_roots(cm, tol=tol).dominant
        if root is not None:
            witness = root.value + 2j * np.pi * n / delay
    except NumericalError:
        witness = None
    return Verdict.from_hypotheses("commuting-gain", hyps, witness)


def _former_verdicts(problem):
    """The former rules, adapted to the folded rules' two departures.

    The real-spectrum witness is set to None where the folded rule
    deliberately gives none: the restricted gain eigenvalue closest to
    real is not real (the former rule took its real part).  Where J equals
    its leading resonant eigenvalue times I up to nonzero rounding, the
    former eigenspace cutoff, relative to the shifted matrix alone, reads
    that rounding as rank, so the former commuting rules raise or restrict
    the gain to too small a space; they are returned as None there and not
    compared (the near-scalar tests pin the folded rules' witnesses)."""
    jac, gain = problem.jacobian(), problem.feedback.gain
    odd = _former_odd_number_verdict(problem)
    hits = _former_resonant_pairs(jac, problem.feedback.delay, DEFAULT)
    if hits:
        shifted = hits[0][0] * np.eye(jac.shape[0]) - jac
        if 0.0 < spectral_norm(shifted) <= 1e-12 * max(1.0, spectral_norm(jac)):
            return odd, None, None
    real = _former_commuting_real_spectrum_verdict(problem)
    if real.witness is not None:
        ks = _former_restricted_gain_eigenvalues(jac, gain, hits[0][0], DEFAULT)
        closest = ks[np.argmin(np.abs(ks.imag))]
        if abs(closest.imag) > DEFAULT.tol_spec * max(1.0, spectral_norm(gain)):
            real = Verdict.from_hypotheses(real.rule, real.hypotheses, None)
    return odd, real, _former_commuting_gain_verdict(problem)


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# A block of D: a real eigenvalue ("real"), or a focus a I + w R with
# w = 2 pi n / T on a resonant line ("focus", n = 0 gives the repeated
# real eigenvalue a) or off it ("off").  Rates come from a short list so
# that blocks repeat.
_BLOCK = st.tuples(
    st.sampled_from(["real", "focus", "off"]),
    st.sampled_from([-0.3, 0.05, 0.2]),
    st.integers(0, 2),
)


def _block_pair(kind, rate, n, delay, rho, theta):
    """One block of D and the block of a rotation gain commuting with it."""
    if kind == "real":
        return np.array([[rate]]), np.array([[rho * np.cos(theta)]])
    w = 2.0 * np.pi * (n + (0.37 if kind == "off" else 0.0)) / delay
    return rate * np.eye(2) + w * _rotation(np.pi / 2), rho * _rotation(theta)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_BLOCK, min_size=1, max_size=3),
    st.sampled_from([2.0 * np.pi, 1.0]),
    st.sampled_from(["polynomial", "rotation", "generic"]),
    st.integers(0, 2**32 - 1),
)
def test_folded_rules_match_the_single_rule_oracle(blocks, delay, gain_kind, seed):
    rng = np.random.default_rng(seed)
    rho, theta = rng.uniform(0.1, 0.8), rng.uniform(-np.pi, np.pi)
    parts = [_block_pair(kind, rate, n, delay, rho, theta) for kind, rate, n in blocks]
    d = scipy.linalg.block_diag(*[p[0] for p in parts])
    dim = d.shape[0]
    s = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    assume(np.linalg.cond(s) < 1e3)
    jac = s @ d @ np.linalg.inv(s)
    if gain_kind == "polynomial":
        c = rng.uniform(-0.5, 0.5, 3)
        gain = c[0] * np.eye(dim) + c[1] * jac + c[2] * jac @ jac
    elif gain_kind == "rotation":
        gain = s @ scipy.linalg.block_diag(*[p[1] for p in parts]) @ np.linalg.inv(s)
    else:  # generically not commuting with J
        gain = rng.uniform(-0.5, 0.5, (dim, dim))
    prob = _equilibrium(jac, gain, delay)
    new = equilibrium_verdicts(prob)
    old = _former_verdicts(prob)
    for got, want in zip(new, old):
        if want is None:  # J is a multiple of I up to nonzero rounding
            continue
        assert got.rule == want.rule and got.outcome == want.outcome
        assert reports.to_jsonable(got.hypotheses) == reports.to_jsonable(want.hypotheses)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert abs(got.witness - want.witness) <= 1e-12 * max(1.0, abs(want.witness))


def test_equilibrium_verdicts_compute_the_reduction_once(monkeypatch):
    calls = {"_resonant_pairs": 0, "relative_commutator": 0, "common_eigenpair": 0}

    def counted(name):
        original = getattr(equilibria, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(equilibria, name, counted(name))
    j = np.array([[0.05, -1.0], [1.0, 0.05]])
    verdicts = equilibrium_verdicts(_equilibrium(j, 0.4 * np.eye(2), 2 * np.pi))
    assert calls == {"_resonant_pairs": 1, "relative_commutator": 1, "common_eigenpair": 1}
    assert [v.witness is not None for v in verdicts[1:]] == [True, True]


def test_reduced_root_real_gain_keeps_root():
    pairs = common_eigenpair(np.diag([0.1, -0.2]), np.diag([0.5, 0.3]), 0.1 + 0.0j)
    m = reduced_root(pairs, 0.1, 2 * np.pi, real=True)
    assert m == pytest.approx(_real_root_oracle(0.1, 0.5, 2 * np.pi), abs=1e-12)
    # the any-gain root is the same root, from the same closed form
    assert reduced_root(pairs, 0.1, 2 * np.pi, real=False) == pytest.approx(m, abs=1e-15)
    assert reduced_root((), 0.1, 2 * np.pi, real=True) is None
    assert reduced_root((), 0.1, 2 * np.pi, real=False) is None


def test_verdicts_run_no_root_search(monkeypatch):
    # every witness comes from the closed form: with the half-plane search
    # and the argument-principle count disabled, every catalog verdict and
    # witness is unchanged
    problems = [get_case(name).problem() for name in case_names()]
    monodromies = {i: ode_monodromy(p) for i, p in enumerate(problems)
                   if not isinstance(p, EquilibriumProblem)}

    def verdicts():
        return [
            equilibrium_verdicts(p) if i not in monodromies else periodic_verdicts(monodromies[i])
            for i, p in enumerate(problems)
        ]

    expect = verdicts()

    def no_search(*args, **kwargs):
        raise AssertionError("a verdict ran a root search")

    monkeypatch.setattr(equilibria, "find_roots", no_search)
    monkeypatch.setattr(equilibria, "count_roots", no_search)
    assert verdicts() == expect


def _commuting_pair(blocks, delay, seed):
    """J = S D S^-1 and K = S E S^-1 for the blocks of :func:`_block_pair`
    (None when S is ill-conditioned), and the scalar factors (j, k) of
    det Delta with their multiplicities: a real block is the factor
    (rate, k), a focus block the conjugate factors (rate +- i w,
    rho exp(+-i theta)), and coinciding factors add up."""
    rng = np.random.default_rng(seed)
    rho, theta = rng.uniform(0.1, 0.8), rng.uniform(-np.pi, np.pi)
    parts = [_block_pair(kind, rate, n, delay, rho, theta) for kind, rate, n in blocks]
    factors = {}
    for (kind, rate, _), (d_block, _) in zip(blocks, parts):
        if kind == "real":
            keys = [(complex(rate), complex(rho * np.cos(theta)))]
        else:
            w = d_block[1, 0]
            keys = [(complex(rate, w), rho * np.exp(1j * theta)),
                    (complex(rate, -w), rho * np.exp(-1j * theta))]
        for key in keys:
            factors[key] = factors.get(key, 0) + 1
    d = scipy.linalg.block_diag(*[p[0] for p in parts])
    e = scipy.linalg.block_diag(*[p[1] for p in parts])
    s = rng.normal(size=(d.shape[0],) * 2) + 2.0 * np.eye(d.shape[0])
    if np.linalg.cond(s) >= 1e3:
        return None, factors
    s_inv = np.linalg.inv(s)
    return CharacteristicMatrix(s @ d @ s_inv, s @ e @ s_inv, delay), factors


def _factor_roots(factors, delay, region):
    """The oracle's roots in ``region`` with their algebraic multiplicities."""
    roots = {}
    for (j, k), mult in factors.items():
        for m in _branch_roots(j, k, delay, region):
            roots[m] = roots.get(m, 0) + mult
    return roots


def _boundary_step(cm, region):
    """The largest vertex spacing of the count's outer boundary."""
    rect = region.rect()
    return float(np.max(np.abs(np.diff(_boundary_vertices(rect, _spacing_for(cm, rect))))))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_BLOCK, min_size=1, max_size=3),
    st.sampled_from([2.0 * np.pi, 1.0]),
    st.integers(0, 2**32 - 1),
)
# a Newton iterate strays to lambda = -134, where exp(-lambda T) overflows
@example([("off", 0.05, 1)], 2.0 * np.pi, 176)
def test_commuting_spectrum_matches_the_lambert_w_oracle(blocks, delay, seed):
    # n <= 6: wherever find_roots succeeds, it finds the factors' branch
    # roots with their multiplicities
    cm, factors = _commuting_pair(blocks, delay, seed)
    assume(cm is not None)
    region = default_region(cm)
    # Two or more roots within one boundary step of the window's left edge
    # turn the phase by nearly 2 pi between two vertices, which reads as a
    # small step: the count misses them without an error (ROADMAP item 1,
    # pinned by the strict xfail below).
    step = _boundary_step(cm, region)
    edge = Region(region.re_min - step, region.re_min + step, region.im_max)
    near = _factor_roots(factors, delay, edge)
    assume(all(sum(u for w, u in near.items() if abs(w - z) < step) < 2 for z in near))
    try:
        rep = find_roots(cm)
    except RootCountError:
        assume(False)  # the extractor's known failures, ROADMAP items 1 and 2
    oracle = _factor_roots(factors, delay, region)
    assert rep.count == sum(oracle.values())
    for m, mult in oracle.items():
        root = min(rep.roots, key=lambda r: abs(r.value - m))
        assert abs(root.value - m) <= 1e-8 * region.scale
        assert root.algebraic == mult


@pytest.mark.parametrize(
    "blocks, delay, seed",
    [
        # a double root pair at 0.0141 +- 2.2211i; the window's scale is 828
        pytest.param(
            [("off", -0.3, 2), ("off", -0.3, 2)], 2.0 * np.pi, 2, id="pair",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="a root cluster next to the window's edge aliases the count")),
        # two double roots at 0.0302 +- 0.0011i; the window's scale is 584.
        # One segment of the whole left edge spans both; on the upper half
        # the real axis is a vertex between them, and the count resolves
        pytest.param(
            [("focus", 0.05, 0), ("off", -0.3, 0), ("focus", 0.05, 0)], 1.0, 76,
            id="cluster"),
    ],
)
def test_count_resolves_a_multiple_root_next_to_the_edge(blocks, delay, seed):
    cm, factors = _commuting_pair(blocks, delay, seed)
    assert count_roots(cm) == sum(_factor_roots(factors, delay, default_region(cm)).values())


# --- the upper-half count of a real characteristic function -------------------


def _distance_to_boundary(z, rect):
    """Euclidean distance from z to the boundary of ``rect``."""
    dx = max(rect.re0 - z.real, 0.0, z.real - rect.re1)
    dy = max(rect.im0 - z.imag, 0.0, z.imag - rect.im1)
    return float(np.hypot(dx, dy)) if dx or dy else rect.distance_to_boundary(z)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([1.0, 2.0 * np.pi]),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_upper_half_count_matches_the_whole_boundary(n, delay, alpha, seed):
    # real J and K: the doubled phase on the upper half of a rectangle
    # symmetric about the real axis counts what the whole boundary counts at
    # a quarter of the spacing, on the default window and on a small box
    # around a real root.  J's eigenvalues start 1 to 2 off the imaginary
    # axis, on both sides, so most draws keep their roots off the window's
    # left edge.
    rng = np.random.default_rng(seed)
    rates = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
    j = np.diag(rates) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    cm = CharacteristicMatrix(j, 0.3 * rng.normal(size=(n, n)) / np.sqrt(n), delay, alpha)
    assert cm.mirror_symmetric
    region = default_region(cm)
    rect = region.rect()
    spacing = _spacing_for(cm, rect)
    # roots within one boundary step of an edge can alias a count (ROADMAP
    # item 1); the generator's eigenvalues locate them
    roots = equilibria._generator_eigenvalues(cm, equilibria._generator_order(cm, rect))
    step = _boundary_step(cm, region)
    assume(all(_distance_to_boundary(z, rect) >= step for z in roots))
    floor = 1e-13 * region.scale
    assert (rootfinding.winding_count(cm.det_batch, rect, spacing, floor, conjugate=True)
            == rootfinding.winding_count(cm.det_batch, rect, spacing / 4.0, floor))
    # a real root right of -1 / T, where |exp(-lambda T)| <= e
    real = [z.real for z in roots if z.imag == 0.0 and z.real > -1.0 / delay]
    if real:
        x = min(real, key=abs)
        w = min([0.1] + [abs(z - x) / 4.0 for z in roots if z != x])
        box = rootfinding.Rect(x - w, x + w, -w, w)
        assert (rootfinding.winding_count(cm.det_batch, box, w, 1e-3 * w, conjugate=True)
                == rootfinding.winding_count(cm.det_batch, box, w / 4.0, 1e-3 * w))


def test_a_complex_gain_is_counted_on_the_whole_boundary(monkeypatch):
    # a complex gain breaks the mirror symmetry: both roots in the window lie
    # above the real axis, and the doubled upper half would not even count
    # an integer
    rate, gain, delay = 0.2, 0.5j, 2.0 * np.pi
    cm = scalar_characteristic(rate, gain, delay)
    assert not cm.mirror_symmetric
    region = default_region(cm)
    rect = region.rect()
    with pytest.raises(NumericalError, match="non-integer"):
        rootfinding.winding_count(cm.det_batch, rect, _spacing_for(cm, rect),
                                  1e-13 * region.scale, conjugate=True)
    lowest = []
    original = CharacteristicMatrix.det_batch

    def spy(self, lams):
        lowest.append(np.min(np.imag(lams)))
        return original(self, lams)

    monkeypatch.setattr(CharacteristicMatrix, "det_batch", spy)
    oracle = _branch_roots(rate, gain, delay, region)
    assert len(oracle) == 2 and all(z.imag > 0.0 for z in oracle)
    assert count_roots(cm) == 2
    assert min(lowest) == -region.im_max
    values = [r.value for r in find_roots(cm, region).roots]
    assert sorted(values, key=lambda z: z.real) == pytest.approx(
        sorted(oracle, key=lambda z: z.real), abs=1e-10)


@pytest.mark.parametrize("n, seed", [(5, 1), (10, 0)])
def test_a_mirror_pair_takes_one_box_count(n, seed, monkeypatch):
    # k root pairs and r real roots in the window: k + r box counts, where
    # certifying each root on its own takes 2k + r, and the same roots
    cm = _random_draw(n, seed)
    region = default_region(cm)
    calls = []
    original = rootfinding.winding_count

    def counted(f, rect, *args):
        calls.append(rect)
        return original(f, rect, *args)

    monkeypatch.setattr(rootfinding, "winding_count", counted)
    paired = find_roots(cm, region)
    pairs = sum(r.value.imag > 0.0 for r in paired.roots)
    real = sum(r.value.imag == 0.0 for r in paired.roots)
    assert pairs and real and len(paired.roots) == 2 * pairs + real
    assert len(calls) == 1 + pairs + real  # the window, then the boxes
    calls.clear()
    monkeypatch.setattr(CharacteristicMatrix, "mirror_symmetric", property(lambda self: False))
    alone = find_roots(cm, region)
    assert len(calls) == 1 + 2 * pairs + real
    assert [r.algebraic for r in alone.roots] == [r.algebraic for r in paired.roots]
    assert [r.value for r in alone.roots] == pytest.approx(
        [r.value for r in paired.roots], abs=1e-12 * region.scale)


def test_commuting_rules_witness_a_near_scalar_jacobian():
    # J = 0.05 I up to rounding and K = 0.3 I: the reduced equation is
    # scalar-basic's, so both witnesses are its recorded root
    prob = _equilibrium(_near_scalar(0.05), 0.3 * np.eye(2), 2 * np.pi)
    _, v_real, v_any = equilibrium_verdicts(prob)
    for v in (v_real, v_any):
        assert v.excluded
        assert abs(v.witness - 0.30618565556145744) <= 1e-12


# --- homotopy in the feedback strength ----------------------------------------


def test_homotopy_trace_tracks_counts():
    prob = _equilibrium([[0.05]], np.array([[0.7]]), 2 * np.pi)
    tr = homotopy_trace(characteristic_matrix(prob))
    assert tr.alphas[0] == 0.0
    assert tr.alphas[-1] == 1.0
    counts = tr.unstable_counts()
    assert counts[0] == 1  # the uncontrolled unstable root
    assert all(c >= 1 for c in counts)  # never stabilized along the path


def test_homotopy_trace_raises_continuation_error_below_min_step():
    tol = DEFAULT.replace(step_cap=1e-12, min_step=0.3)
    cm = scalar_characteristic(0.05, 0.7, 2 * np.pi)
    with pytest.raises(ContinuationError, match="alpha step"):
        homotopy_trace(cm, tol=tol)


def _complex_normal(rng, dim):
    return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_homotopy_trace_samples_move_at_most_step_cap(dim, seed):
    # complex J and K, so no root is pinned to the real split line, with the
    # eigenvalues of J at Re 0.5 to 1 and a gain small enough that no root
    # comes near the imaginary axis: a family the root finder resolves on
    # all but about 1 draw in 1000, which is skipped (ROADMAP items 1 and 2)
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(0.5, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    s = np.eye(dim) + 0.3 * _complex_normal(rng, dim)
    j = s @ np.diag(eigs) @ np.linalg.inv(s)
    k = 0.1 * _complex_normal(rng, dim)
    tol = DEFAULT.replace(step_cap=0.01)
    try:
        tr = homotopy_trace(CharacteristicMatrix(j, k, 2 * np.pi), tol=tol)
    except RootCountError:
        assume(False)
    assert tr.alphas[0] == 0.0 and tr.alphas[-1] == 1.0
    assert list(tr.alphas) == sorted(set(tr.alphas))
    for (_, a), (_, b) in zip(tr.steps, tr.steps[1:]):
        assert matched_movement(_expanded_positions(a), _expanded_positions(b)) <= tol.step_cap


def _identity_report(calls):
    def report(s):
        calls.append(s)
        return s

    return report


def test_continuation_raises_when_a_gap_reaches_min_step():
    # a jump at s = 1/3 moves too far over every gap; bisection narrows in
    # on it and stops at the min_step floor, 20 halvings deep
    calls = []
    with pytest.raises(ContinuationError, match="parameter gap"):
        continuation(_identity_report(calls), lambda s: [float(s > 1 / 3)], [0.0, 1.0], DEFAULT)
    assert len(calls) == 2 + 20


def test_continuation_refines_a_fast_path_to_step_cap():
    # points moving 1000 per unit parameter need 4096 gaps under the
    # default step_cap; only min_step bounds the refinement
    steps = continuation(lambda s: s, lambda s: [1000.0 * s], [0.0, 1.0], DEFAULT)
    assert len(steps) == 4097
    assert max(1000.0 * (b - a) for (a, _), (b, _) in zip(steps, steps[1:])) <= DEFAULT.step_cap


def test_continuation_keeps_a_fine_enough_grid():
    calls = []
    grid = [0.0, 0.5, 1.0]
    steps = continuation(_identity_report(calls), lambda s: [0.1 * s], grid, DEFAULT)
    assert steps == tuple((s, s) for s in grid) and calls == grid


# the two greedy matching loops the shared matcher replaced, kept as oracles


def _oracle_matched_movement(prev, new):
    if not prev or not new:
        return 0.0
    cand = sorted(
        (abs(p - q), i, j) for i, p in enumerate(prev) for j, q in enumerate(new)
    )
    used_i, used_j = set(), set()
    worst = 0.0
    quota = min(len(prev), len(new))
    for d, i, j in cand:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        worst = max(worst, d)
        if len(used_i) == quota:
            break
    return worst


def _oracle_locus_assignment(active, values, cutoff):
    pairs = sorted(
        (abs(active[tid] - v), tid, idx) for tid in active for idx, v in enumerate(values)
    )
    taken_t, taken_r, assignment = set(), set(), {}
    for d, tid, idx in pairs:
        if tid in taken_t or idx in taken_r or d > cutoff:
            continue
        taken_t.add(tid)
        taken_r.add(idx)
        assignment[idx] = tid
    return assignment


# points on a quarter grid, each list closed under conjugation and with
# repeats, so exact distance ties are the rule rather than the exception
_GRID = st.builds(complex, st.integers(-3, 3).map(lambda x: x / 4), st.integers(0, 3).map(lambda y: y / 4))
_SPECTRUM = st.lists(_GRID, max_size=5).map(
    lambda zs: [w for z in zs for w in ((z,) if z.imag == 0 else (z, z.conjugate()))]
)


@settings(max_examples=300, deadline=None)
@given(
    _SPECTRUM,
    _SPECTRUM,
    st.permutations(range(12)),
    st.sampled_from([0.0, 0.25, 0.5, np.inf]),
)
def test_greedy_matches_reproduce_both_matching_loops(prev, new, ids, cutoff):
    assert matched_movement(prev, new) == _oracle_matched_movement(prev, new)
    # trace ids inserted out of order, as a locus does when traces are born
    active = dict(zip(ids, prev))
    assert _assign_traces(active, new, cutoff) == _oracle_locus_assignment(active, new, cutoff)


# --- Hopf curves and the crossing law ------------------------------------------


def test_critical_gain_puts_root_on_axis():
    rng = np.random.default_rng(9)
    a, delay = 0.05, 2 * np.pi
    for w in rng.uniform(0.1, 0.9, 10):
        k = complex(critical_gain(a, delay, w))
        cm = scalar_characteristic(a, k, delay)
        assert abs(cm.det_batch([1j * w])[0]) < 1e-14


def test_hopf_branch_windows_and_monotonicity():
    fam = hopf_curves(0.05, 2 * np.pi, branches=(0, 1, 2), samples=200)
    base = 1.0  # 2 pi / T
    for br in fam.branches:
        lo, hi = br.index * base, (br.index + 1) * base
        assert br.omegas[0] > lo and br.omegas[-1] < hi
        assert len(br.omegas) == 200
        assert np.all(np.diff(br.gains.real) < 0)


def test_hopf_requires_unstable_rate():
    with pytest.raises(InputError):
        hopf_curves(-0.1, 2 * np.pi)


@pytest.mark.parametrize("rate, delay", [(0.05, np.inf), (np.inf, 1.0), (np.nan, 1.0)])
def test_hopf_rejects_non_finite_rate_or_delay(rate, delay):
    with pytest.raises(InputError):
        hopf_curves(rate, delay)


def test_crossing_changes_count_by_two():
    a, delay = 0.05, 2 * np.pi
    fam = hopf_curves(a, delay, branches=(0,), samples=50)
    br = fam.branches[0]
    for frac in (0.3, 0.7):
        w = br.omegas[0] + frac * (br.omegas[-1] - br.omegas[0])
        k = complex(critical_gain(a, delay, w))
        d = 1e-3 * max(1.0, abs(k))
        left = unstable_count_for_gain(a, delay, k - d)
        right = unstable_count_for_gain(a, delay, k + d)
        assert right - left == 2


def test_unstable_count_for_real_gain_is_doubled():
    # real gain: the rotation form consists of two conjugate copies
    assert unstable_count_for_gain(0.05, 2 * np.pi, 0.0 + 0.0j) == 2


# --- loci along gain paths ------------------------------------------------------


def test_locus_keeps_resonant_root_on_the_line():
    sigma, delay = 0.05, 2 * np.pi
    j = np.array([[sigma, -1.0], [1.0, sigma]])
    path = GainPath.from_gains(
        [-1.0, 0.0, 1.0], [kap * np.eye(2) for kap in (-1.0, 0.0, 1.0)]
    )
    res = eigenvalue_locus(j, delay, path)
    # at every refined sample some root sits exactly on Im = 1
    for s, rep in res.samples:
        pinned = [r for r in rep.all_roots if abs(r.value.imag - 1.0) <= 1e-8]
        assert pinned, f"no root on the resonant line at s={s}"
        assert max(r.value.real for r in pinned) > 0


def test_locus_traces_are_threaded():
    path = GainPath.from_gains([0.0, 0.5, 1.0], [[[0.1]], [[0.5]], [[0.9]]])
    res = eigenvalue_locus(np.array([[0.05]]), 2 * np.pi, path)
    assert res.traces
    longest = max(res.traces, key=lambda tr: len(tr.points))
    ss = [p.s for p in longest.points]
    assert ss == sorted(ss)
    # the dominant branch moves continuously
    vals = np.array([p.value for p in longest.points])
    assert np.max(np.abs(np.diff(vals))) < 0.3


def test_locus_raises_continuation_error_below_min_gap():
    tol = DEFAULT.replace(step_cap=1e-12, min_step=0.3)
    path = GainPath.from_gains([0.0, 1.0], [[[0.1]], [[0.9]]])
    with pytest.raises(ContinuationError, match="parameter gap"):
        eigenvalue_locus(np.array([[0.05]]), 2 * np.pi, path, tol=tol)


def _former_locus_samples(jacobian, delay, path, region, tol):
    """The locus's own bisection loop before it moved into ``continuation``."""
    def report(s):
        return find_roots(CharacteristicMatrix(jacobian, path.gain_at(s), delay), region, tol)

    samples = {}
    order = list(path.parameter)
    for s in order:
        samples[s] = report(s)
    span = path.parameter[-1] - path.parameter[0]
    min_gap = max(tol.min_step * span, 1e-12)
    work = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    budget = 64 * len(order)
    while work:
        a, b = work.pop()
        move = matched_movement(_expanded_positions(samples[a]), _expanded_positions(samples[b]))
        if move <= tol.step_cap:
            continue
        if (b - a) <= min_gap:
            raise ContinuationError(f"roots moved {move:.3g} over parameter gap {b - a:.3g}")
        budget -= 1
        if budget <= 0:
            raise ContinuationError("locus refinement budget exhausted")
        mid = 0.5 * (a + b)
        samples[mid] = report(mid)
        work.append((a, mid))
        work.append((mid, b))
    return tuple((s, samples[s]) for s in sorted(samples))


def test_locus_samples_match_the_former_bisection():
    jac, delay = np.array([[0.05]]), 2 * np.pi
    path = GainPath.from_gains([0.0, 1.0], [[[0.1]], [[0.9]]])
    tol = DEFAULT.replace(step_cap=0.05)
    region = default_region(CharacteristicMatrix(jac, np.array([[0.9]]), delay), tol)
    res = eigenvalue_locus(jac, delay, path, tol=tol)
    want = _former_locus_samples(jac, delay, path, region, tol)
    assert len(want) > 2  # the path refines
    assert res.samples == want


def test_gain_path_validation():
    with pytest.raises(InputError):
        GainPath.from_gains([0.0], [np.eye(1)])
    with pytest.raises(InputError):
        GainPath.from_gains([0.0, 0.0], [np.eye(1), np.eye(1)])
