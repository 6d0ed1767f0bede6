"""End-to-end acceptance checks, one per advertised capability.

Each test drives the public API the way a user would and records a single
PASS/FAIL line through the conftest hook, so the terminal summary reads as
a checklist: resonating-center invariance, determining-center invariance,
the persistent real root under scalar and matrix gains, Hopf curves with
the crossing law, the pinned resonant line, the monodromy cross-oracle,
Floquet reconstruction, time-domain corroboration, and the expression
front end.  Tolerances are pinned here and nowhere tightened or loosened
at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from conftest import record_line
from test_expressions import _random_tree

from pyrastab import (
    DEFAULT,
    CharacteristicMatrix,
    ConstantCoefficient,
    DelayFeedback,
    GainPath,
    PeriodicLinearProblem,
    Region,
    characteristic_matrix,
    check_determining_invariance,
    check_resonance_invariance,
    critical_gain,
    dde_monodromy,
    eigenvalue_locus,
    find_roots,
    floquet_decompose,
    growth_rate,
    homotopy_trace,
    hopf_curves,
    integrate,
    multipliers,
    ode_monodromy,
    parse_field,
    perturbed_history,
    unstable_count_for_gain,
)
from pyrastab.benchmarks import get_case
from pyrastab.expressions import parse, to_source

TWO_PI = 2.0 * np.pi


@contextmanager
def _criterion(number: int, label: str):
    """Record one summary line per criterion, also when the body raises."""
    started = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        record_line(f"criterion {number} FAIL: {label}: {exc}")
        raise
    elapsed = time.perf_counter() - started
    record_line(f"criterion {number} PASS: {label}: {info['detail']} ({elapsed:.2f} s)")


# --- 1: the eigenspace at a resonant point ignores gain and strength ----------


def test_resonating_center_invariant_under_random_gain():
    rng = np.random.default_rng(42)
    with _criterion(1, "resonating-center invariance") as info:
        started = time.perf_counter()
        agree = 0
        trials = 100
        for _ in range(trials):
            g = int(rng.integers(0, 3))
            n = int(rng.integers(0, 4))
            delay = float(rng.uniform(0.5, 3.0))
            blocks = []
            if n == 0:
                blocks.extend([np.zeros((1, 1))] * g)
            else:
                w = 2.0 * np.pi * n / delay
                blocks.extend([np.array([[0.0, -w], [w, 0.0]])] * g)
            for _ in range(int(rng.integers(1, 3))):
                # filler eigenvalues keep a safe distance from the resonant point
                blocks.append(np.array([[float(rng.uniform(0.2, 1.5) * rng.choice([-1, 1]))]]))
            diag = scipy.linalg.block_diag(*blocks)
            dim = diag.shape[0]
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            jac = q @ diag @ q.T
            gain = rng.standard_normal((dim, dim))
            alpha = float(rng.uniform(-2.0, 2.0))
            cm = CharacteristicMatrix(jac, gain, delay, alpha)
            inv = check_resonance_invariance(cm, n)
            assert inv.dim_uncontrolled == g
            assert inv.equal, f"dims {inv.dim_uncontrolled} vs {inv.dim_controlled}"
            agree += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        info["detail"] = f"{agree}/{trials} dimensions agree under random gain"


# --- 2: geometric multiplicity of multiplier 1, ODE vs delay operator ---------


def test_determining_center_dimension_survives_feedback():
    expected = {"center-periodic": 2, "orbit-unstable": 0, "orbit-neutral": 1}
    with _criterion(2, "determining-center invariance") as info:
        started = time.perf_counter()
        seen = []
        for name, g in expected.items():
            problem = get_case(name).problem()
            inv = check_determining_invariance(problem, nodes=64)
            assert inv.g_ode == g, name
            assert inv.equal, name
            assert inv.g_dde == inv.g_dde_refined, name
            seen.append(f"{name} g={inv.g_ode}")
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        info["detail"] = "; ".join(seen)


# --- 3: one unstable real root survives every admissible gain -----------------


def test_real_unstable_root_survives_every_gain():
    with _criterion(3, "persistent real root") as info:
        hits = 0
        sweep = np.linspace(-2.0, 2.0, 81)
        for k in sweep:
            cm = CharacteristicMatrix(np.array([[0.05]]), np.array([[k]]), TWO_PI)
            region = Region(1e-8, 0.05 + 2.0 * abs(k) + 1.2, 0.5)
            rep = find_roots(cm, region)
            real = [
                r
                for r in rep.all_roots
                if abs(r.value.imag) < 1e-9 and r.value.real > 1e-8
            ]
            assert real, f"no real unstable root at k={k}"
            hits += 1

        # matrix version: an odd saddle keeps at least one root in the right
        # half plane along the entire homotopy in the feedback strength
        rng = np.random.default_rng(7)
        stays = 0
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            jac = q @ np.diag([1.0, -1.0, -2.0]) @ q.T
            gain = 0.4 * rng.standard_normal((3, 3))
            trace = homotopy_trace(CharacteristicMatrix(jac, gain, TWO_PI))
            assert trace.alphas[0] == 0.0 and trace.alphas[-1] == 1.0
            assert min(trace.unstable_counts()) >= 1
            stays += 1
        info["detail"] = f"{hits}/81 scalar gains, {stays}/20 matrix homotopies"


# --- 4: Hopf curves are monotone graphs and crossings add exactly 2 -----------


def test_hopf_curves_monotone_and_crossing_counts():
    rate, delay = 0.05, TWO_PI
    with _criterion(4, "Hopf curves and crossing law") as info:
        family = hopf_curves(rate, delay, branches=(0, 1, 2), samples=200)
        for branch in family.branches:
            assert len(branch.omegas) == 200
            assert np.all(np.diff(branch.gains.real) < 0.0)
        probes = 0
        base = TWO_PI / delay
        for m in (0, 1, 2):
            lo, hi = m * base, (m + 1) * base
            for frac in (0.15, 0.3, 0.5, 0.7, 0.85):
                k_star = complex(critical_gain(rate, delay, lo + frac * (hi - lo)))
                step = 1e-3 * max(1.0, abs(k_star))
                left = unstable_count_for_gain(rate, delay, k_star - step)
                right = unstable_count_for_gain(rate, delay, k_star + step)
                assert right - left == 2, (m, frac, left, right)
                assert right > left
                probes += 1
        info["detail"] = f"3 branches strictly decreasing, {probes}/15 probes jump by 2"


# --- 5: the resonant line holds the tracked root at Im = 1 --------------------


def test_resonant_root_pinned_along_gain_ray():
    jac = np.array([[0.05, -1.0], [1.0, 0.05]])
    kappas = np.linspace(-1.0, 1.0, 41)
    path = GainPath.from_gains(kappas, [k * np.eye(2) for k in kappas])
    with _criterion(5, "resonant line invariance") as info:
        result = eigenvalue_locus(jac, TWO_PI, path)
        assert len(result.samples) >= 41
        for s, rep in result.samples:
            pinned = [
                r
                for r in rep.all_roots
                if r.value.real > 1e-9 and abs(r.value.imag - 1.0) <= 1e-8
            ]
            assert pinned, f"no pinned unstable root at kappa={s}"
        info["detail"] = f"{len(result.samples)} samples keep a root on Im = 1"


# --- 6: delay monodromy vs characteristic roots, two ways, one answer ---------


def test_dde_monodromy_matches_characteristic_spectrum():
    floor = 0.1
    cases = [
        ("scalar", np.array([[0.05]]), np.array([[0.3]]), 8.0),
        ("planar focus", np.array([[0.05, -1.0], [1.0, 0.05]]), 0.2 * np.eye(2), 12.0),
    ]
    with _criterion(6, "monodromy cross-oracle") as info:
        worst_gap = worst_mismatch = 0.0
        for _, jac, gain, im_max in cases:
            problem = PeriodicLinearProblem(
                ConstantCoefficient(jac), TWO_PI, DelayFeedback(gain, TWO_PI)
            )
            dde = dde_monodromy(problem, nodes=64)
            assert dde.cross_residual <= 1e-6
            worst_gap = max(worst_gap, dde.cross_residual)
            report = multipliers(dde, DEFAULT.replace(mu_floor=floor))
            # every retained multiplier must be exp(lambda T) for a root in a
            # region wide enough to cover the floor with margin
            region = Region(np.log(floor) / TWO_PI - 0.05, 1.5, im_max)
            spectrum = find_roots(CharacteristicMatrix(jac, gain, TWO_PI), region)
            targets = [np.exp(r.value * TWO_PI) for r in spectrum.all_roots]
            for entry in report.entries:
                dist = min(abs(t - entry.value) for t in targets)
                rel = dist / max(1.0, abs(entry.value))
                assert rel <= 1e-6, entry.value
                worst_mismatch = max(worst_mismatch, rel)
        info["detail"] = (
            f"construction gap <= {worst_gap:.1e}, "
            f"multiplier mismatch <= {worst_mismatch:.1e}"
        )


# --- 7: Floquet form reconstructs the fundamental solution --------------------


def test_floquet_form_reconstructs_fundamental_solution():
    problem = get_case("orbit-unstable").problem()
    period = problem.period
    with _criterion(7, "Floquet reconstruction") as info:
        mono = ode_monodromy(problem)
        dec = floquet_decompose(mono)
        worst_periodic = worst_reconstruction = 0.0
        for t in np.linspace(0.0, period, 32):
            p_t = dec.periodic_factor(t)
            worst_periodic = max(
                worst_periodic, np.linalg.norm(dec.periodic_factor(t + period) - p_t)
            )
            worst_reconstruction = max(
                worst_reconstruction,
                np.linalg.norm(mono.value_at(t) - p_t @ dec.exponential_factor(t)),
            )
        assert worst_periodic <= 1e-8
        assert worst_reconstruction <= 1e-8
        mults = sorted(np.linalg.eigvals(mono.matrix), key=lambda z: (z.real, z.imag))
        targets = sorted(
            np.exp(np.linalg.eigvals(dec.generator) * period),
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(mults, targets):
            assert abs(got - want) <= 1e-8
        info["detail"] = (
            f"P periodic to {worst_periodic:.1e}, "
            f"Y = P exp(Bt) to {worst_reconstruction:.1e}"
        )


# --- 8: time-domain growth corroborates the dominant root ---------------------


def test_simulated_growth_matches_dominant_root():
    unstable = [
        "scalar-basic",
        "scalar-damped-gain",
        "scalar-strong-gain",
        "focus-resonant-inward",
        "focus-resonant-outward",
        "focus-resonant-strong",
        "focus-rotation-gain-inward",
        "focus-rotation-gain-outward",
        "odd-three-dim",
        "saddle-two-dim",
    ]
    with _criterion(8, "time-domain corroboration") as info:
        worst = 0.0
        for name in unstable:
            problem = get_case(name).problem()
            delay = problem.feedback.delay
            dominant = find_roots(characteristic_matrix(problem)).dominant.value.real
            history = perturbed_history(problem.point, delay, 1e-6, seed=11)
            trajectory = integrate(problem.field, problem.feedback, history, 40.0 * delay)
            span = trajectory.times[-1] - trajectory.times[0]
            rate = growth_rate(trajectory, span / 3.0, problem.point)
            assert rate > 0.0, name
            rel = abs(rate - dominant) / dominant
            assert rel <= 0.1, (name, rate, dominant)
            worst = max(worst, rel)
        stable = get_case("scalar-stable").problem()
        history = perturbed_history(stable.point, stable.feedback.delay, 1e-6, seed=11)
        trajectory = integrate(
            stable.field, stable.feedback, history, 40.0 * stable.feedback.delay
        )
        span = trajectory.times[-1] - trajectory.times[0]
        assert growth_rate(trajectory, span / 3.0, stable.point) < 0.0
        info["detail"] = f"{len(unstable)} unstable rates within {worst:.1e}, stable decays"


# --- 9: expression front end, derivatives and round trip ----------------------


def test_expression_jacobians_and_round_trip():
    rng = np.random.default_rng(90210)
    params = {"a": 0.7, "b": -1.3}
    names = tuple(params)
    with _criterion(9, "expression front end") as info:
        checked = 0
        while checked < 200:
            dim = int(rng.integers(1, 4))
            trees = [
                _random_tree(rng, dim, names, int(rng.integers(1, 5)))
                for _ in range(dim)
            ]
            field = parse_field([to_source(t) for t in trees], params)
            x = rng.uniform(-1.5, 1.5, size=dim)
            t = float(rng.uniform(-1.0, 1.0))
            if np.any(np.abs(field(x, t)) > 1e4):
                continue
            jac = field.jacobian(x, t)
            fd = np.empty_like(jac)
            for i in range(dim):
                h = 1e-5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[:, i] = (field(xp, t) - field(xm, t)) / (2.0 * h)
            if np.any(np.abs(fd) > 1e4):
                continue
            assert jac == pytest.approx(fd, rel=1e-6, abs=1e-6)
            for src in field.source_strings():
                again = parse(src, dim, names)
                assert to_source(again) == src
            checked += dim
        info["detail"] = f"{checked} expressions: derivative and print/parse agree"
