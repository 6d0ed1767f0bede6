"""Characteristic spectra of equilibria under delayed difference feedback.

For an equilibrium with linearization J, gain K, delay T and feedback
strength alpha, the characteristic matrix is

    Delta(lambda) = lambda I - J - alpha (1 - exp(-lambda T)) K,

analytic in lambda, so right-half-plane root counts come from the argument
principle and refine to certified locations.  On the resonant points
lambda = 2 pi n i / T the delay term vanishes identically, which is the
geometric invariance the exclusion rules in this module exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import ContinuationError, InputError, NumericalError
from .linalg import kernel_basis, rank_cutoff, spectral_norm
from .problems import EquilibriumProblem
from .rootfinding import Rect, count_with_nudge, find_roots_rect
from .tolerances import DEFAULT, Tolerances
from .verdicts import Hypothesis, Verdict

__all__ = [
    "CharacteristicMatrix",
    "characteristic_matrix",
    "scalar_characteristic",
    "Region",
    "default_region",
    "Root",
    "SpectrumReport",
    "find_roots",
    "count_roots",
    "char_det",
    "resonating_center",
    "ResonanceInvariance",
    "check_resonance_invariance",
    "HomotopyTrace",
    "homotopy_trace",
    "matched_movement",
    "odd_number_verdict",
    "commuting_real_spectrum_verdict",
    "commuting_gain_verdict",
    "real_delayed_root",
    "equilibrium_verdicts",
    "HopfBranch",
    "HopfCurveFamily",
    "hopf_curves",
    "unstable_count_for_gain",
    "GainPath",
    "LocusPoint",
    "LocusTrace",
    "LocusResult",
    "eigenvalue_locus",
]


# ---------------------------------------------------------------------------
# characteristic matrix


@dataclass(frozen=True)
class CharacteristicMatrix:
    """Holomorphic family Delta(lambda) for one (J, K, T, alpha)."""

    jacobian: np.ndarray
    gain: np.ndarray
    delay: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        j = np.asarray(self.jacobian)
        k = np.asarray(self.gain)
        j = j.astype(complex) if np.iscomplexobj(j) else j.astype(float)
        k = k.astype(complex) if np.iscomplexobj(k) else k.astype(float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise InputError("jacobian must be square")
        if k.shape != j.shape:
            raise InputError(
                f"gain shape {k.shape} does not match jacobian shape {j.shape}"
            )
        if not (np.all(np.isfinite(j.real)) and np.all(np.isfinite(k.real))):
            raise InputError("jacobian and gain must be finite")
        delay = float(self.delay)
        if not np.isfinite(delay) or delay <= 0.0:
            raise InputError(f"delay must be positive, got {delay}")
        alpha = float(self.alpha)
        if not np.isfinite(alpha):
            raise InputError("alpha must be finite")
        for name, val in (("jacobian", j), ("gain", k)):
            val = val.copy()
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "alpha", alpha)

    @property
    def dimension(self) -> int:
        return self.jacobian.shape[0]

    @property
    def is_real(self) -> bool:
        return not (np.iscomplexobj(self.jacobian) or np.iscomplexobj(self.gain))

    @property
    def norm_bound(self) -> float:
        return spectral_norm(self.jacobian) + 2.0 * abs(self.alpha) * spectral_norm(self.gain)

    def with_alpha(self, alpha: float) -> "CharacteristicMatrix":
        return CharacteristicMatrix(self.jacobian, self.gain, self.delay, alpha)

    def value(self, lam: complex) -> np.ndarray:
        lam = complex(lam)
        n = self.dimension
        return (
            lam * np.eye(n)
            - self.jacobian
            - self.alpha * (1.0 - np.exp(-lam * self.delay)) * self.gain
        )

    def dvalue(self, lam: complex) -> np.ndarray:
        lam = complex(lam)
        n = self.dimension
        return np.eye(n) - self.alpha * self.delay * np.exp(-lam * self.delay) * self.gain

    def det(self, lam: complex) -> complex:
        return complex(np.linalg.det(self.value(lam)))

    def det_batch(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=complex)
        n = self.dimension
        if n == 1:
            j = complex(self.jacobian[0, 0])
            k = complex(self.gain[0, 0])
            return lams - j - self.alpha * (1.0 - np.exp(-lams * self.delay)) * k
        eye = np.eye(n)
        mats = (
            lams[:, None, None] * eye
            - self.jacobian
            - self.alpha
            * (1.0 - np.exp(-lams[:, None, None] * self.delay))
            * self.gain
        )
        return np.linalg.det(mats)

    def dlog(self, lam: complex) -> complex:
        # d'(lam)/d(lam) = trace(Delta^{-1} Delta') by the Jacobi formula
        delta = self.value(lam)
        return complex(np.trace(np.linalg.solve(delta, self.dvalue(lam))))

    def residual(self, lam: complex) -> float:
        svals = scipy.linalg.svdvals(self.value(lam))
        return float(svals[-1] / max(1.0, svals[0]))

    def kernel_dimension(self, lam: complex, tol: Tolerances = DEFAULT) -> int:
        svals = scipy.linalg.svdvals(self.value(lam))
        tau = max(
            rank_cutoff(svals, self.dimension, tol.rank_factor),
            tol.tol_res * max(1.0, float(svals[0])),
        )
        return int(np.count_nonzero(svals <= tau))


def characteristic_matrix(
    problem: EquilibriumProblem, alpha: float = 1.0
) -> CharacteristicMatrix:
    return CharacteristicMatrix(
        problem.jacobian(), problem.feedback.gain, problem.feedback.delay, alpha
    )


def scalar_characteristic(
    rate: complex, gain: complex, delay: float, alpha: float = 1.0
) -> CharacteristicMatrix:
    """One-dimensional characteristic matrix; the gain may be complex."""
    rate = complex(rate)
    gain = complex(gain)
    jac = np.array([[rate]]) if rate.imag else np.array([[rate.real]])
    g = np.array([[gain]]) if gain.imag else np.array([[gain.real]])
    return CharacteristicMatrix(jac, g, delay, alpha)


def char_det(cm: CharacteristicMatrix, lam) -> complex | np.ndarray:
    """det Delta(lambda); accepts a scalar or an array of points."""
    arr = np.asarray(lam, dtype=complex)
    out = cm.det_batch(np.atleast_1d(arr))
    return complex(out[0]) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# regions and spectrum reports


@dataclass(frozen=True)
class Region:
    """Axis-aligned window re_min <= Re <= re_max, |Im| <= im_max."""

    re_min: float
    re_max: float
    im_max: float

    def __post_init__(self) -> None:
        if not (
            np.isfinite(self.re_min)
            and np.isfinite(self.re_max)
            and np.isfinite(self.im_max)
        ):
            raise InputError("region bounds must be finite")
        if not (self.re_max > self.re_min and self.im_max > 0.0):
            raise InputError(
                f"empty region: re in [{self.re_min}, {self.re_max}], "
                f"|im| <= {self.im_max}"
            )

    def rect(self) -> Rect:
        return Rect(self.re_min, self.re_max, -self.im_max, self.im_max)

    @property
    def scale(self) -> float:
        return max(1.0, abs(self.re_min), abs(self.re_max), self.im_max)


def default_region(cm: CharacteristicMatrix, tol: Tolerances = DEFAULT) -> Region:
    """Right-half-plane window guaranteed to contain every unstable root.

    Any root with Re lambda >= 0 obeys |lambda| <= ||J|| + 2|alpha| ||K||,
    so re_max adds 1 for slack; the imaginary cap matches the resonance
    window used by the exclusion rules.
    """
    bound = cm.norm_bound + 1.0
    omega = 4.0 * np.pi / cm.delay * (5 + cm.dimension)
    return Region(tol.tol_axis, bound, max(omega, bound))


@dataclass(frozen=True)
class Root:
    value: complex
    algebraic: int
    geometric: int
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """Certified roots of det Delta inside a region.

    ``roots`` live strictly off the imaginary axis (|Re| > tol_axis);
    ``marginal`` collects roots inside the axis band, which never count
    as unstable.
    """

    region: Region
    alpha: float
    roots: tuple[Root, ...]
    marginal: tuple[Root, ...] = ()

    @property
    def count(self) -> int:
        return sum(r.algebraic for r in self.roots)

    @property
    def all_roots(self) -> tuple[Root, ...]:
        both = list(self.roots) + list(self.marginal)
        both.sort(key=lambda r: (-r.value.real, r.value.imag))
        return tuple(both)

    def unstable_count(self, tol_axis: float = 1e-9) -> int:
        return sum(r.algebraic for r in self.roots if r.value.real > tol_axis)

    @property
    def dominant(self) -> Root | None:
        if not self.roots:
            return None
        return max(self.roots, key=lambda r: r.value.real)


def _root_record(cm: CharacteristicMatrix, z: complex, mult: int, tol: Tolerances) -> Root:
    svals = scipy.linalg.svdvals(cm.value(z))
    tau = max(
        rank_cutoff(svals, cm.dimension, tol.rank_factor),
        tol.tol_res * max(1.0, float(svals[0])),
    )
    geo = int(np.count_nonzero(svals <= tau))
    residual = float(svals[-1] / max(1.0, svals[0]))
    return Root(z, mult, max(geo, 1), residual)


def _spacing_for(cm: CharacteristicMatrix, rect: Rect) -> float:
    # the exponential term oscillates with period 2 pi / T along Im; the
    # polynomial part turns the phase at most N pi along an edge
    osc = (2.0 * np.pi / cm.delay) / 8.0
    poly = max(rect.width, rect.height) / (4.0 * cm.dimension + 4.0)
    return min(osc, poly)


def find_roots(
    cm: CharacteristicMatrix,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
) -> SpectrumReport:
    """All characteristic roots in ``region`` with multiplicities.

    With no region, uses :func:`default_region` and additionally sweeps the
    thin band |Re| <= tol_axis so marginal roots are reported rather than
    silently straddling the window edge.  Roots closer together than about
    1e-7 of the region scale may merge into one cluster entry.
    """
    scan_band = region is None
    region = region or default_region(cm, tol)
    rect = region.rect()
    scale = region.scale

    def accept(z: complex) -> bool:
        return cm.residual(z) <= tol.tol_res

    pairs = find_roots_rect(
        cm.det_batch,
        cm.dlog,
        rect,
        accept,
        _spacing_for(cm, rect),
        scale,
        budget=tol.tol_region,
    )
    if scan_band:
        band = Rect(-tol.tol_axis, tol.tol_axis, -region.im_max, region.im_max)
        band_pairs = find_roots_rect(
            cm.det_batch,
            cm.dlog,
            band,
            accept,
            _spacing_for(cm, band),
            scale,
            budget=tol.tol_region,
        )
        for z, m in band_pairs:
            if not any(abs(z - w) <= 1e-10 * scale for w, _ in pairs):
                pairs.append((z, m))

    margin = 1e-12 * scale
    main: list[Root] = []
    marginal: list[Root] = []
    for z, m in pairs:
        rec = _root_record(cm, z, m, tol)
        if abs(z.real) <= tol.tol_axis:
            marginal.append(rec)
        elif rect.inflate(margin).contains(z):
            main.append(rec)
        # else: only reachable through boundary nudging; the root belongs
        # to the exterior and is dropped
    main.sort(key=lambda r: (-r.value.real, r.value.imag))
    marginal.sort(key=lambda r: (-r.value.real, r.value.imag))
    return SpectrumReport(region, cm.alpha, tuple(main), tuple(marginal))


def count_roots(
    cm: CharacteristicMatrix,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
) -> int:
    """Argument-principle count alone (no extraction); cheaper than
    :func:`find_roots` when only the number matters."""
    region = region or default_region(cm, tol)
    rect = region.rect()
    n, _ = count_with_nudge(
        cm.det_batch,
        rect,
        _spacing_for(cm, rect),
        1e-13 * region.scale,
        region.scale,
        tol.tol_region,
    )
    return n


# ---------------------------------------------------------------------------
# resonating centers


def resonating_center(
    jacobian: np.ndarray, delay: float, n: int, tol: Tolerances = DEFAULT
) -> tuple[int, np.ndarray]:
    """Eigenspace of J at the resonant point 2 pi n i / delay.

    Returns (dimension, orthonormal basis of shape (N, dimension)); the
    dimension is zero when the point is not an eigenvalue.
    """
    jacobian = np.asarray(jacobian)
    if delay <= 0:
        raise InputError("delay must be positive")
    target = 2j * np.pi * n / delay
    basis = kernel_basis(
        target * np.eye(jacobian.shape[0]) - jacobian, tol.rank_factor
    )
    return basis.shape[1], basis


@dataclass(frozen=True)
class ResonanceInvariance:
    n: int
    point: complex
    dim_uncontrolled: int
    dim_controlled: int

    @property
    def equal(self) -> bool:
        return self.dim_uncontrolled == self.dim_controlled


def check_resonance_invariance(
    cm: CharacteristicMatrix, n: int, tol: Tolerances = DEFAULT
) -> ResonanceInvariance:
    """Compare the eigenspace of J at 2 pi n i / T with the kernel of the
    controlled characteristic matrix at the same point.

    The feedback factor (1 - exp(-lambda T)) vanishes there, so the two
    dimensions agree for every gain and every alpha; this check computes
    both sides independently.
    """
    point = 2j * np.pi * n / cm.delay
    dim_open, _ = resonating_center(cm.jacobian, cm.delay, n, tol)
    svals = scipy.linalg.svdvals(cm.value(point))
    tau = rank_cutoff(svals, cm.dimension, tol.rank_factor)
    dim_ctrl = int(np.count_nonzero(svals <= tau))
    return ResonanceInvariance(n, point, dim_open, dim_ctrl)


# ---------------------------------------------------------------------------
# homotopy in the feedback strength


@dataclass(frozen=True)
class HomotopyTrace:
    steps: tuple[tuple[float, SpectrumReport], ...]

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.steps)

    def unstable_counts(self, tol_axis: float = 1e-9) -> tuple[int, ...]:
        return tuple(rep.unstable_count(tol_axis) for _, rep in self.steps)


def _expanded_positions(report: SpectrumReport) -> list[complex]:
    out: list[complex] = []
    for r in report.all_roots:
        out.extend([r.value] * r.algebraic)
    return out


def matched_movement(prev: list[complex], new: list[complex]) -> float:
    """Largest distance between matched points of two spectra, matched
    greedily nearest pair first; unmatched points (roots or multipliers
    entering or leaving through the region boundary) do not count as
    movement."""
    if not prev or not new:
        return 0.0
    cand = sorted(
        (abs(p - q), i, j) for i, p in enumerate(prev) for j, q in enumerate(new)
    )
    used_i: set[int] = set()
    used_j: set[int] = set()
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


def homotopy_trace(
    cm: CharacteristicMatrix,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
    initial_step: float = 0.125,
) -> HomotopyTrace:
    """Spectrum reports along alpha from 0 to full strength.

    Steps adapt so matched roots move at most ``tol.step_cap`` between
    consecutive reports; the region is fixed once (sized for the full
    gain) so counts are comparable across steps.
    """
    region = region or default_region(cm, tol)
    base = cm.alpha

    def report(s: float) -> SpectrumReport:
        rep = find_roots(cm.with_alpha(base * s), region, tol)
        # marginal band roots still matter for the parity bookkeeping
        band = Rect(-tol.tol_axis, tol.tol_axis, -region.im_max, region.im_max)
        cm_s = cm.with_alpha(base * s)
        extra = find_roots_rect(
            cm_s.det_batch,
            cm_s.dlog,
            band,
            lambda z: cm_s.residual(z) <= tol.tol_res,
            _spacing_for(cm_s, band),
            region.scale,
            budget=tol.tol_region,
        )
        marginal = list(rep.marginal)
        for z, m in extra:
            if not any(abs(z - r.value) <= 1e-10 * region.scale for r in marginal):
                marginal.append(_root_record(cm_s, z, m, tol))
        marginal.sort(key=lambda r: (-r.value.real, r.value.imag))
        return SpectrumReport(region, cm_s.alpha, rep.roots, tuple(marginal))

    steps = [(0.0, report(0.0))]
    s = 0.0
    h = initial_step
    while s < 1.0:
        trial = min(1.0, s + h)
        rep = report(trial)
        move = matched_movement(
            _expanded_positions(steps[-1][1]), _expanded_positions(rep)
        )
        if move > tol.step_cap:
            if trial - s <= tol.min_step:
                raise ContinuationError(
                    f"roots moved {move:.3g} over alpha step {trial - s:.3g}"
                )
            h *= 0.5
            continue
        steps.append((trial, rep))
        s = trial
        h = min(initial_step, h * 1.6)
    return HomotopyTrace(tuple(steps))


# ---------------------------------------------------------------------------
# exclusion rules for equilibria


def _eig_scale(j: np.ndarray) -> float:
    return 1.0 + spectral_norm(j)


def _resonant_pairs(
    jacobian: np.ndarray, delay: float, tol: Tolerances
) -> list[tuple[complex, int]]:
    """Eigenvalues of J of the form lambda* + 2 pi n i / delay with
    lambda* > 0, sorted by descending real part."""
    eigs = np.linalg.eigvals(jacobian)
    scale = _eig_scale(jacobian)
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


def _commutator_hypothesis(
    jacobian: np.ndarray, gain: np.ndarray, tol: Tolerances
) -> Hypothesis:
    denom = np.linalg.norm(jacobian) * np.linalg.norm(gain)
    comm = 0.0 if denom == 0.0 else float(np.linalg.norm(jacobian @ gain - gain @ jacobian) / denom)
    return Hypothesis(
        "gain commutes with the linearization",
        comm <= tol.tol_comm,
        f"relative commutator norm {comm:.3e}",
        value=comm,
        tolerance=tol.tol_comm,
    )


def _real_spectrum_hypothesis(gain: np.ndarray, tol: Tolerances) -> Hypothesis:
    eigs = np.linalg.eigvals(gain)
    worst = float(np.max(np.abs(eigs.imag))) if len(eigs) else 0.0
    thr = tol.tol_spec * max(1.0, spectral_norm(gain))
    return Hypothesis(
        "gain has real spectrum",
        worst <= thr,
        f"largest |Im| over the gain spectrum {worst:.3e}",
        value=worst,
        tolerance=thr,
    )


def _restricted_gain_eigenvalues(
    jacobian: np.ndarray, gain: np.ndarray, eig: complex, tol: Tolerances
) -> np.ndarray:
    """Eigenvalues of K restricted to the eigenspace of J at ``eig``.

    Valid when K commutes with J, so the eigenspace is K-invariant."""
    basis = kernel_basis(eig * np.eye(jacobian.shape[0]) - jacobian, tol.rank_factor)
    if basis.shape[1] == 0:
        raise NumericalError(f"no eigenspace found at {eig}")
    restricted = basis.conj().T @ gain @ basis
    return np.linalg.eigvals(restricted)


def real_delayed_root(rate: float, gain: float, delay: float) -> float:
    """Positive solution m of m = rate + gain (1 - exp(-m T)).

    g(0) = -rate < 0 and g(m) > 0 for m >= rate + 2|gain| + 1, so a root
    exists for every real gain."""
    hi = rate + 2.0 * abs(gain) + 1.0

    def g(m: float) -> float:
        return m - rate - gain * (1.0 - np.exp(-m * delay))

    return float(scipy.optimize.brentq(g, 0.0, hi, xtol=1e-14, rtol=1e-15))


def odd_number_verdict(problem: EquilibriumProblem, tol: Tolerances = DEFAULT) -> Verdict:
    """Excluded when J is nonsingular and has an odd total count of
    eigenvalues in the open right half plane: the difference feedback then
    keeps a real positive characteristic root for every gain and delay."""
    jac = problem.jacobian()
    eigs = np.linalg.eigvals(jac)
    scale = _eig_scale(jac)
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


def commuting_real_spectrum_verdict(
    problem: EquilibriumProblem, tol: Tolerances = DEFAULT
) -> Verdict:
    """Excluded when an unstable eigenvalue of J sits on a resonant line
    Im = 2 pi n / T and the gain commutes with J and has real spectrum.

    The reduction along a common eigenvector leaves the scalar equation
    m = lambda* + k (1 - exp(-m T)) with real k, which always has a
    positive root; the witness is that root shifted back to the line."""
    jac = problem.jacobian()
    gain = problem.feedback.gain
    delay = problem.feedback.delay
    hits = _resonant_pairs(jac, delay, tol)
    h_res = Hypothesis(
        "unstable eigenvalue on a resonant line",
        bool(hits),
        (
            f"eigenvalue {hits[0][0]:.6g} matches n={hits[0][1]}"
            if hits
            else "no unstable eigenvalue with Im a multiple of 2 pi / T"
        ),
    )
    h_comm = _commutator_hypothesis(jac, gain, tol)
    h_spec = _real_spectrum_hypothesis(gain, tol)
    hyps = (h_res, h_comm, h_spec)
    if not all(h.passed for h in hyps):
        return Verdict.from_hypotheses("commuting-real-spectrum", hyps)
    eig, n = hits[0]
    ks = _restricted_gain_eigenvalues(jac, gain, eig, tol)
    k = float(ks[np.argmin(np.abs(ks.imag))].real)
    m = real_delayed_root(eig.real, k, delay)
    witness = complex(m, 2.0 * np.pi * n / delay)
    return Verdict.from_hypotheses("commuting-real-spectrum", hyps, witness)


def commuting_gain_verdict(
    problem: EquilibriumProblem, tol: Tolerances = DEFAULT
) -> Verdict:
    """Excluded when an unstable eigenvalue pair of J sits on resonant
    lines Im = +-2 pi n / T and the gain commutes with J; no condition on
    the gain spectrum.  The scalar reduction may have a complex gain, so
    the witness root is located by the half-plane search."""
    jac = problem.jacobian()
    gain = problem.feedback.gain
    delay = problem.feedback.delay
    hits = _resonant_pairs(jac, delay, tol)
    h_res = Hypothesis(
        "unstable eigenvalue pair on resonant lines",
        bool(hits),
        (
            f"eigenvalue {hits[0][0]:.6g} matches n={hits[0][1]}"
            if hits
            else "no unstable eigenvalue with Im a multiple of 2 pi / T"
        ),
    )
    h_comm = _commutator_hypothesis(jac, gain, tol)
    hyps = (h_res, h_comm)
    if not all(h.passed for h in hyps):
        return Verdict.from_hypotheses("commuting-gain", hyps)
    eig, n = hits[0]
    witness = None
    try:
        ks = _restricted_gain_eigenvalues(jac, gain, eig, tol)
        k = complex(ks[0])
        rep = find_roots(scalar_characteristic(eig.real, k, delay), tol=tol)
        if rep.dominant is not None:
            witness = rep.dominant.value + 2j * np.pi * n / delay
    except NumericalError:
        witness = None
    return Verdict.from_hypotheses("commuting-gain", hyps, witness)


def equilibrium_verdicts(
    problem: EquilibriumProblem, tol: Tolerances = DEFAULT
) -> tuple[Verdict, ...]:
    return (
        odd_number_verdict(problem, tol),
        commuting_real_spectrum_verdict(problem, tol),
        commuting_gain_verdict(problem, tol),
    )


# ---------------------------------------------------------------------------
# Hopf curves of critical complex gains


@dataclass(frozen=True)
class HopfBranch:
    """Critical gains k*(omega) for omega in one resonance interval
    (2 pi m / T, 2 pi (m+1) / T), sampled away from the endpoints."""

    index: int
    omegas: np.ndarray
    gains: np.ndarray


@dataclass(frozen=True)
class HopfCurveFamily:
    rate: float
    delay: float
    branches: tuple[HopfBranch, ...]


def critical_gain(rate: float, delay: float, omega) -> np.ndarray:
    """Gain putting a characteristic root exactly at i omega:
    k*(omega) = (i omega - rate) / (1 - exp(-i omega T))."""
    omega = np.asarray(omega, dtype=float)
    return (1j * omega - rate) / (1.0 - np.exp(-1j * omega * delay))


def hopf_curves(
    rate: float,
    delay: float,
    branches: Sequence[int] = (0, 1, 2),
    samples: int = 200,
    tol: Tolerances = DEFAULT,
) -> HopfCurveFamily:
    """Sampled critical-gain curves for the scalar unstable equation.

    Each branch is a graph over the real gain axis with strictly
    decreasing real part as omega increases; that monotonicity is verified
    sample by sample and a violation raises, since it would break the
    crossing bookkeeping built on these curves.
    """
    rate = float(rate)
    delay = float(delay)
    if not (rate > 0.0):
        raise InputError("rate must be positive")
    if not (delay > 0.0):
        raise InputError("delay must be positive")
    if samples < 2:
        raise InputError("need at least two samples per branch")
    out = []
    base = 2.0 * np.pi / delay
    for m in branches:
        m = int(m)
        if m < 0:
            raise InputError("branch indices must be nonnegative")
        lo = m * base
        hi = (m + 1) * base
        guard = tol.hopf_guard * (hi - lo)
        omegas = np.linspace(lo + guard, hi - guard, samples)
        gains = critical_gain(rate, delay, omegas)
        re = gains.real
        if not np.all(np.diff(re) < 0.0):
            raise NumericalError(
                f"branch {m}: real part of the critical gain is not strictly "
                "decreasing in omega"
            )
        out.append(HopfBranch(m, omegas, gains))
    return HopfCurveFamily(rate, delay, tuple(out))


def unstable_count_for_gain(
    rate: float, delay: float, gain: complex, tol: Tolerances = DEFAULT
) -> int:
    """Total right-half-plane root count of the scalar problem at ``gain``
    plus its conjugate, i.e. of the underlying real two-dimensional
    rotation form.  Crossing one Hopf curve transversally changes this
    count by exactly 2."""
    gain = complex(gain)
    n = count_roots(scalar_characteristic(rate, gain, delay), tol=tol)
    if gain.imag == 0.0:
        return 2 * n
    conj = count_roots(scalar_characteristic(rate, gain.conjugate(), delay), tol=tol)
    return n + conj


# ---------------------------------------------------------------------------
# eigenvalue loci along gain paths


@dataclass(frozen=True)
class GainPath:
    """Piecewise-linear path of gain matrices over a scalar parameter."""

    parameter: tuple[float, ...]
    gains: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.parameter) != len(self.gains):
            raise InputError("parameter and gain lists must have equal length")
        if len(self.parameter) < 2:
            raise InputError("a gain path needs at least two samples")
        if not all(b > a for a, b in zip(self.parameter, self.parameter[1:])):
            raise InputError("path parameter must be strictly increasing")

    @classmethod
    def from_gains(cls, parameter: Sequence[float], gains: Sequence[np.ndarray]) -> "GainPath":
        mats = tuple(np.asarray(g, dtype=complex) for g in gains)
        return cls(tuple(float(s) for s in parameter), mats)

    @classmethod
    def scalar(cls, values: Sequence[complex], parameter: Sequence[float] | None = None) -> "GainPath":
        vals = [complex(v) for v in values]
        if parameter is None:
            parameter = list(range(len(vals)))
        return cls.from_gains(parameter, [np.array([[v]]) for v in vals])

    def gain_at(self, s: float) -> np.ndarray:
        s = float(s)
        par = self.parameter
        if s <= par[0]:
            return self.gains[0]
        if s >= par[-1]:
            return self.gains[-1]
        idx = int(np.searchsorted(par, s)) - 1
        t = (s - par[idx]) / (par[idx + 1] - par[idx])
        return (1.0 - t) * self.gains[idx] + t * self.gains[idx + 1]


@dataclass(frozen=True)
class LocusPoint:
    s: float
    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class LocusTrace:
    trace_id: int
    points: tuple[LocusPoint, ...]


@dataclass(frozen=True)
class LocusResult:
    traces: tuple[LocusTrace, ...]
    samples: tuple[tuple[float, SpectrumReport], ...]


def eigenvalue_locus(
    jacobian: np.ndarray,
    delay: float,
    path: GainPath,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
    alpha: float = 1.0,
) -> LocusResult:
    """Characteristic roots tracked along a path of gain matrices.

    Samples are refined until matched roots move at most ``tol.step_cap``
    between neighbors, then greedy nearest matching threads them into
    traces; roots entering or leaving the region start or end a trace.
    """
    jacobian = np.asarray(jacobian)
    if region is None:
        worst = max(spectral_norm(g) for g in path.gains)
        bound = spectral_norm(jacobian) + 2.0 * abs(alpha) * worst + 1.0
        omega = 4.0 * np.pi / delay * (5 + jacobian.shape[0])
        region = Region(tol.tol_axis, bound, max(omega, bound))

    def report(s: float) -> SpectrumReport:
        cm = CharacteristicMatrix(jacobian, path.gain_at(s), delay, alpha)
        return find_roots(cm, region, tol)

    samples: dict[float, SpectrumReport] = {}
    order: list[float] = list(path.parameter)
    for s in order:
        samples[s] = report(s)

    span = path.parameter[-1] - path.parameter[0]
    min_gap = max(tol.min_step * span, 1e-12)
    work = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    budget = 64 * len(order)
    while work:
        a, b = work.pop()
        move = matched_movement(
            _expanded_positions(samples[a]), _expanded_positions(samples[b])
        )
        if move <= tol.step_cap:
            continue
        if (b - a) <= min_gap:
            raise ContinuationError(
                f"roots moved {move:.3g} over parameter gap {b - a:.3g}"
            )
        budget -= 1
        if budget <= 0:
            raise ContinuationError("locus refinement budget exhausted")
        mid = 0.5 * (a + b)
        samples[mid] = report(mid)
        work.append((a, mid))
        work.append((mid, b))

    order = sorted(samples)
    traces: dict[int, list[LocusPoint]] = {}
    active: dict[int, complex] = {}
    next_id = 0
    for s in order:
        rep = samples[s]
        roots = list(rep.all_roots)
        pairs = sorted(
            (abs(active[tid] - r.value), tid, idx)
            for tid in active
            for idx, r in enumerate(roots)
        )
        taken_t: set[int] = set()
        taken_r: set[int] = set()
        assignment: dict[int, int] = {}
        for d, tid, idx in pairs:
            if tid in taken_t or idx in taken_r or d > 2.0 * tol.step_cap:
                continue
            taken_t.add(tid)
            taken_r.add(idx)
            assignment[idx] = tid
        new_active: dict[int, complex] = {}
        for idx, r in enumerate(roots):
            tid = assignment.get(idx)
            if tid is None:
                tid = next_id
                next_id += 1
                traces[tid] = []
            traces[tid].append(LocusPoint(s, r.value, r.algebraic, r.geometric))
            new_active[tid] = r.value
        active = new_active

    trace_objs = tuple(
        LocusTrace(tid, tuple(pts)) for tid, pts in sorted(traces.items())
    )
    report_list = tuple((s, samples[s]) for s in order)
    return LocusResult(trace_objs, report_list)
