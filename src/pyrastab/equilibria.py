"""Characteristic spectra of equilibria under delayed difference feedback.

For an equilibrium with linearization J, gain K, delay T and feedback
strength alpha, the characteristic matrix is

    Delta(lambda) = lambda I - J - alpha (1 - exp(-lambda T)) K,

analytic in lambda, so right-half-plane root counts come from the argument
principle and refine to certified locations.  On the resonant points
lambda = 2 pi n i / T the delay term vanishes identically, which is the
geometric invariance the exclusion rules in this module exploit.

The common-eigenvector reduction behind the commuting rules is defined
here once for equilibria and periodic orbits: the gain restricted to an
unstable eigenspace of J (or of the Floquet generator B) leaves the
scalar equation m = lambda + k (1 - exp(-m T)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.special

from .chebyshev import differentiation_matrix, lobatto_nodes
from .errors import ContinuationError, InputError, NumericalError
from .linalg import kernel_basis, spectral_norm, svd_rank
from .problems import EquilibriumProblem, finite_scalar, integer, positive_finite
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
    "resonating_center",
    "ResonanceInvariance",
    "check_resonance_invariance",
    "HomotopyTrace",
    "homotopy_trace",
    "matched_movement",
    "continuation",
    "relative_commutator",
    "real_spectrum_hypothesis",
    "CommonEigenpair",
    "common_eigenpair",
    "scalar_dominant_root",
    "reduced_root",
    "equilibrium_verdicts",
    "critical_gain",
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
        if j.shape[0] == 0:
            raise InputError("jacobian must be at least 1 x 1")
        if k.shape != j.shape:
            raise InputError(
                f"gain shape {k.shape} does not match jacobian shape {j.shape}"
            )
        if not (np.all(np.isfinite(j)) and np.all(np.isfinite(k))):
            raise InputError("jacobian and gain must be finite")
        delay = positive_finite(self.delay, "delay")
        alpha = finite_scalar(self.alpha, "alpha")
        eye = np.eye(j.shape[0])
        for name, val in (("jacobian", j), ("gain", k), ("_eye", eye), ("_neg_jacobian", -j)):
            val = val.copy()
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "alpha", alpha)
        # Frobenius norms of J and K, the term sizes ``residual`` divides by
        object.__setattr__(self, "_norms", (float(np.linalg.norm(j)), float(np.linalg.norm(k))))
        # ||J||_2 + 2 |alpha| ||K||_2, which bounds every root with Re >= 0
        norm_bound = spectral_norm(j) + 2.0 * abs(alpha) * spectral_norm(k)
        object.__setattr__(self, "norm_bound", norm_bound)
        # real J and K, whatever their dtype (alpha is real): the roots come
        # in mirror pairs
        object.__setattr__(self, "_mirror", not (np.any(np.imag(j)) or np.any(np.imag(k))))

    @property
    def dimension(self) -> int:
        return self.jacobian.shape[0]

    @property
    def mirror_symmetric(self) -> bool:
        """Whether det Delta(conj lambda) = conj det Delta(lambda), so the
        roots are mirror-symmetric about the real axis: real J and K."""
        return self._mirror

    def with_alpha(self, alpha: float) -> "CharacteristicMatrix":
        return CharacteristicMatrix(self.jacobian, self.gain, self.delay, alpha)

    def value(self, lam: complex) -> np.ndarray:
        lam = complex(lam)
        return self._value(lam, np.exp(-lam * self.delay))

    def _value(self, lam, decay) -> np.ndarray:
        # Delta at lam, one point or an (S, 1, 1) stack; decay = exp(-lam T),
        # shared with _dvalue in dlog.  Two passes over the stack, -J - c K
        # with c = alpha (1 - decay), then the diagonal (lam - J_ii) - c K_ii:
        # bit for bit lam I - J - alpha (1 - decay) K
        c = self.alpha * (1.0 - decay)
        out = np.multiply(c, self.gain)
        np.subtract(self._neg_jacobian, out, out=out)
        diagonal = (lam - self.jacobian.diagonal()) - c * self.gain.diagonal()
        i = np.arange(self.dimension)
        out[..., i, i] = diagonal.reshape(out.shape[:-1])
        return out

    def _dvalue(self, decay: complex) -> np.ndarray:
        return self._eye - self.alpha * self.delay * decay * self.gain

    def det_batch(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=complex)[:, None, None]
        return np.linalg.det(self._value(lams, np.exp(-lams * self.delay)))

    def dlog(self, lam: complex) -> complex:
        # d'(lam)/d(lam) = trace(Delta^{-1} Delta') by the Jacobi formula
        lam = complex(lam)
        decay = np.exp(-lam * self.delay)
        return complex(np.linalg.solve(self._value(lam, decay), self._dvalue(decay)).trace())

    def residual(self, lam: complex) -> float:
        """Backward error of ``lam`` as a root: sigma_min(Delta(lam)) over the
        size of Delta's terms, max(1, |lam| + ||J|| + |alpha| (1 +
        |exp(-lam T)|) ||K||) in the Frobenius norm, as for any nonlinear
        eigenproblem.  Unlike sigma_min / sigma_max it can reach rounding
        level next to a root of any modulus."""
        return float(scipy.linalg.svdvals(self.value(lam))[-1] / self._term_size(lam))

    def _term_size(self, lam: complex) -> float:
        norm_j, norm_k = self._norms
        decay = abs(np.exp(-complex(lam) * self.delay))
        return max(1.0, abs(lam) + norm_j + abs(self.alpha) * (1.0 + decay) * norm_k)


def characteristic_matrix(problem: EquilibriumProblem) -> CharacteristicMatrix:
    return CharacteristicMatrix(
        problem.jacobian(), problem.feedback.gain, problem.feedback.delay
    )


def scalar_characteristic(rate: complex, gain: complex, delay: float) -> CharacteristicMatrix:
    """One-dimensional characteristic matrix; the gain may be complex."""
    rate = complex(rate)
    gain = complex(gain)
    jac = np.array([[rate]]) if rate.imag else np.array([[rate.real]])
    g = np.array([[gain]]) if gain.imag else np.array([[gain.real]])
    return CharacteristicMatrix(jac, g, delay)


# ---------------------------------------------------------------------------
# regions and spectrum reports


@dataclass(frozen=True)
class Region:
    """Axis-aligned window re_min <= Re <= re_max, |Im| <= im_max."""

    re_min: float
    re_max: float
    im_max: float

    def __post_init__(self) -> None:
        for name in ("re_min", "re_max", "im_max"):
            object.__setattr__(self, name, finite_scalar(getattr(self, name), f"region {name}"))
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
    so re_max adds 1 for slack; the imaginary cap reaches at least the
    resonant lines the exclusion rules search (``_resonant_lines``).
    """
    bound = cm.norm_bound + 1.0
    omega = 2.0 * np.pi / cm.delay * _resonant_lines(cm.dimension)
    return Region(tol.tol_axis, bound, max(omega, bound))


def _resonant_lines(n: int) -> int:
    """The resonance window of dimension n: the resonant lines 2 pi k i / T
    with |k| <= 2 (5 + n), searched by the exclusion rules and covered by
    the default region."""
    return 2 * (5 + n)


@dataclass(frozen=True)
class Root:
    value: complex
    algebraic: int
    geometric: int
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """Certified roots of det Delta inside a region.

    ``roots`` live strictly off the imaginary axis (|Re| > tol_axis of
    the tolerances the report was built with); ``marginal`` collects roots
    inside the axis band, which never count as unstable.
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
        return tuple(sorted((*self.roots, *self.marginal), key=_root_order))

    def unstable_count(self) -> int:
        """Algebraic count of ``roots`` right of the axis band."""
        return sum(r.algebraic for r in self.roots if r.value.real > 0.0)

    @property
    def dominant(self) -> Root | None:
        if not self.roots:
            return None
        return max(self.roots, key=lambda r: r.value.real)


def _root_order(root: Root) -> tuple[float, float]:
    """The order roots are listed in, which fixes the envelopes: descending
    real part, then ascending imaginary part."""
    return (-root.value.real, root.value.imag)


def _root_record(cm: CharacteristicMatrix, z: complex, mult: int, tol: Tolerances) -> Root:
    svals = scipy.linalg.svdvals(cm.value(z))
    floor = tol.tol_res * max(1.0, float(svals[0]))
    geo = cm.dimension - svd_rank(svals, cm.dimension, tol.rank_factor, floor)
    # cm.residual(z), from the singular values already at hand
    return Root(z, mult, max(geo, 1), float(svals[-1] / cm._term_size(z)))


def _spacing_for(cm: CharacteristicMatrix, rect: Rect) -> float:
    # the exponential term oscillates with period 2 pi / T along Im; the
    # polynomial part turns the phase at most N pi along an edge
    osc = (2.0 * np.pi / cm.delay) / 8.0
    poly = max(rect.width, rect.height) / (4.0 * cm.dimension + 4.0)
    return min(osc, poly)


_GENERATOR_SIZE_CAP = 512   # most unknowns n (N + 1) of the generator collocation


def _generator_order(cm: CharacteristicMatrix, rect: Rect) -> int:
    """First collocation order N for seeding the roots in the window ``rect``.

    A root with Re lambda >= x obeys |lambda| <= ||J|| + |alpha| (1 +
    exp(-x T)) ||K||, at most norm_bound max(1, exp(-x T)); so every root
    in the window lies within the radius r, the smaller of that bound at
    its left edge and its farthest point from 0.  With [-T, 0] mapped to
    [-1, 1], a root's eigenfunction exp(lambda theta) is exp(c s) up to a
    factor, |c| <= r T / 2, and the Chebyshev coefficients of exp(c s) fall
    off factorially once the degree passes |c|: so N = ceil(r T / 2) + 4,
    at least 8.  The size cap keeps n (N + 1) <= 512 (N >= 2); beyond it
    the seeds are coarser, and a shortfall re-seeds from doubled orders up
    to the same cap (see :func:`find_roots`).  The cap holds for a scalar
    gain too, whose collocation is split into n blocks of N + 1 (see
    :func:`_generator_eigenvalues`), so the orders do not depend on the
    path.  The axis band searched beside the window (|Re| <= 1 / T) reuses
    the window's seeds, so they do not depend on whether it is searched.
    """
    reach = max(abs(complex(x, y)) for x in (rect.re0, rect.re1) for y in (rect.im0, rect.im1))
    growth = np.exp(min(-rect.re0 * cm.delay, 50.0))
    radius = min(reach, cm.norm_bound * max(1.0, growth))
    order = max(8, int(np.ceil(0.5 * cm.delay * radius)) + 4)
    return max(2, min(order, _GENERATOR_SIZE_CAP // cm.dimension - 1))


def _generator_eigenvalues(cm: CharacteristicMatrix, order: int) -> np.ndarray:
    """Eigenvalues of the order-``order`` Chebyshev collocation of the
    infinitesimal generator of x' = (J + alpha K) x - alpha K x(t - T) on
    C([-T, 0]).

    The state is sampled at N + 1 Lobatto nodes of [-T, 0]; every node but
    theta = 0 carries the derivative of the interpolant, and theta = 0
    carries the delay equation itself (Breda, Maset & Vermiglio, SIAM J.
    Sci. Comput. 27, 2005).  Its n (N + 1) eigenvalues approximate the
    characteristic roots of smallest modulus; they only seed Newton.  For
    real J and K the collocation is built in real arithmetic, whatever
    their dtype, so its real eigenvalues come out real and its complex ones
    in exact mirror pairs.

    A scalar gain K = k I splits the collocation: conjugated by I (x) Q,
    where J = Q T Q* is a Schur form, it is block upper triangular with
    one (N + 1) x (N + 1) block per eigenvalue mu of J, the differentiation
    matrix with its last row [-alpha k, 0, ..., 0, mu + alpha k].  Its
    spectrum is the union of those blocks' spectra, at a cost of n (N + 1)^3
    in place of (n (N + 1))^3.  The arithmetic follows the dtype of J and
    K: real blocks for real mu, and for real J and K one complex block per
    pair mu, conj mu, whose eigenvalues are mirrored for the partner.  Any
    other gain takes the full n (N + 1) collocation.  The order, and so
    the size cap n (N + 1) <= 512, is the caller's for either path.
    """
    n = cm.dimension
    jac, gain = (cm.jacobian.real, cm.gain.real) if cm.mirror_symmetric else (cm.jacobian, cm.gain)
    diff = differentiation_matrix(lobatto_nodes(order + 1, -cm.delay, 0.0))
    dtype = np.result_type(jac, gain)
    k = gain[0, 0]
    if not np.array_equal(gain, k * np.eye(n)):
        gen = np.kron(diff, np.eye(n)).astype(dtype)
        gen[-n:] = 0.0
        gen[-n:, -n:] = jac + cm.alpha * gain
        gen[-n:, :n] = -cm.alpha * gain
        return np.linalg.eigvals(gen)

    def spectra(mu: np.ndarray) -> np.ndarray:
        blocks = np.zeros((len(mu), order + 1, order + 1), dtype=np.result_type(mu, k))
        blocks[:, :-1] = diff[:-1]
        blocks[:, -1, 0] = -cm.alpha * k
        blocks[:, -1, -1] = mu + cm.alpha * k
        return np.linalg.eigvals(blocks).ravel()

    mu = np.linalg.eigvals(jac)
    if dtype.kind == "c":
        return spectra(mu)
    # real J and k: dgeev returns real mu as real and complex mu in exact
    # conjugate pairs, so the blocks of Im mu < 0 are the mirrors of those
    # of Im mu > 0
    parts = [spectra(mu.real[mu.imag == 0.0])]
    upper = mu[mu.imag > 0.0]
    if len(upper):
        upper = spectra(upper)
        parts += [upper, upper.conj()]
    return np.concatenate(parts)


def find_roots(
    cm: CharacteristicMatrix,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
) -> SpectrumReport:
    """All characteristic roots in ``region`` with multiplicities.

    With no region, uses :func:`default_region` and also reports the
    marginal roots, those with |Re| <= tol_axis, which the default window
    (it starts at Re = tol_axis) leaves out.  They are searched in a band
    |Re| <= max(tol_axis, min(1e-5 region.scale, 1 / T)), wide enough to
    certify a root on the axis itself, and only those inside |Re| <=
    tol_axis are kept.

    Newton starts from the eigenvalues of a Chebyshev collocation of the
    delay equation's infinitesimal generator on [-T, 0], of order N =
    ceil(r T / 2) + 4, at least 8, where r bounds |lambda| over the region's
    window by its extent and ``cm.norm_bound``; n (N + 1) <= 512 caps its
    size.  A scalar gain K = k I splits the collocation exactly over the
    eigenvalues of J, into n blocks of N + 1 whose eigenvalues cost n (N +
    1)^3 in place of (n (N + 1))^3; the cap fixes the orders for either
    path.  A seed decides no count and no multiplicity: every multiplicity
    is the winding count of a box around the polished root, the boxes are
    disjoint, and their total must equal the window's winding count.  A
    larger total proves that count aliased and raises
    :class:`RootCountError`.  A smaller one re-seeds from the collocation
    at 2N, 4N, ..., the last order cut to the size cap, each order computed
    at most once per call, and raises :class:`RootCountError` once the
    orders run out.  For real J, K and alpha (``cm.mirror_symmetric``) the
    roots off the real axis come in exact mirror pairs: a polished root
    and its mirror share one box half-width, one residual test and one box
    count, and every count on a rectangle symmetric about the real axis
    (the window, the axis band, a real root's box) walks the upper half of
    its boundary alone, with the phase sum doubled.  Distinct roots closer
    together than the usual box (about 1e-7 of the region scale) keep
    separate boxes when Newton tells them apart; points Newton cannot tell
    apart merge into one cluster entry.  What stays non-rigorous is the
    winding count itself: a sampled boundary phase in floating point, with
    no interval arithmetic.
    """
    return _spectrum(cm, region or default_region(cm, tol), tol, scan_band=region is None)


def _spectrum(
    cm: CharacteristicMatrix, region: Region, tol: Tolerances, scan_band: bool
) -> SpectrumReport:
    """Roots in ``region``, plus the marginal ones when ``scan_band``."""
    rect = region.rect()
    scale = region.scale
    # The extractor certifies a root by a winding count in a box of
    # half-width about 1e-7 scale that must clear its rectangle; a band only
    # 2 tol_axis wide cannot hold that box around a root at Re = 0, so
    # the band is widened, to at most 1 / T (|exp(-lambda T)| <= e on it),
    # and roots outside |Re| <= tol_axis (main window or exterior) are dropped.
    half = max(tol.tol_axis, min(1e-5 * scale, 1.0 / cm.delay))
    band = Rect(-half, half, -region.im_max, region.im_max)
    cap = _GENERATOR_SIZE_CAP // cm.dimension - 1
    orders = [_generator_order(cm, rect)]
    while orders[-1] < cap:
        orders.append(min(2 * orders[-1], cap))
    # a shortfall draws the next order; each order's seeds are computed
    # once, on first use, and the band reuses the window's
    batch = functools.cache(lambda order: _generator_eigenvalues(cm, order))

    def accept(z: complex) -> bool:
        return cm.residual(z) <= tol.tol_res

    def roots_in(box: Rect) -> list[tuple[complex, int]]:
        return find_roots_rect(
            cm.det_batch, cm.dlog, box, accept, _spacing_for(cm, box), scale, tol.tol_region,
            map(batch, orders), cm.mirror_symmetric,
        )

    pairs = roots_in(rect)
    if scan_band:
        # a band root within 1e-10 scale of a main-window root is that root
        # (the window's nudged edge can reach Re <= tol_axis); band roots are
        # distinct from each other
        window = list(pairs)
        for z, m in roots_in(band):
            if abs(z.real) <= tol.tol_axis and not any(
                abs(z - w) <= 1e-10 * scale for w, _ in window
            ):
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
    main.sort(key=_root_order)
    marginal.sort(key=_root_order)
    return SpectrumReport(region, cm.alpha, tuple(main), tuple(marginal))


def count_roots(
    cm: CharacteristicMatrix,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
) -> int:
    """Argument-principle count alone (no extraction); cheaper than
    :func:`find_roots` when only the number matters.

    For real J and K (``cm.mirror_symmetric``) the window, symmetric about
    the real axis, is counted on the upper half of its boundary alone with
    the phase sum doubled, half the determinant evaluations of the whole
    boundary; a complex J or K takes the whole boundary.  Either way the
    count rests on a sampled boundary phase in floating point, with no
    interval arithmetic."""
    region = region or default_region(cm, tol)
    rect = region.rect()
    n, _ = count_with_nudge(
        cm.det_batch,
        rect,
        _spacing_for(cm, rect),
        1e-13 * region.scale,
        region.scale,
        tol.tol_region,
        conjugate=cm.mirror_symmetric,
    )
    return n


# ---------------------------------------------------------------------------
# resonating centers


def resonating_center(
    jacobian: np.ndarray, delay: float, n: int, tol: Tolerances = DEFAULT
) -> tuple[int, np.ndarray]:
    """Eigenspace of J at the resonant point 2 pi n i / delay, for any
    integer n and a delay in (0, inf).

    Returns (dimension, orthonormal basis of shape (N, dimension)); the
    dimension is zero when the point is not an eigenvalue.
    """
    jacobian = np.asarray(jacobian)
    target = 2j * np.pi * integer(n, "n") / positive_finite(delay, "delay")
    basis = _kernel(target * np.eye(jacobian.shape[0]) - jacobian, jacobian, tol)
    return basis.shape[1], basis


def _kernel(matrix: np.ndarray, generator: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Kernel basis of ``matrix``, a shift of ``generator`` (J, or B for an
    orbit), with svd_rank's floor relative to max(1, ||generator||): the
    shifted matrix's own largest singular value is rounding noise when the
    generator is a multiple of the identity."""
    scale = max(1.0, spectral_norm(generator))
    floor = generator.shape[0] * np.finfo(float).eps * tol.rank_factor * scale
    return kernel_basis(matrix, tol.rank_factor, floor)


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
    """Compare the eigenspace of J at 2 pi n i / T, n any integer, with the
    kernel of the controlled characteristic matrix at the same point.

    The feedback factor (1 - exp(-lambda T)) vanishes there, so the two
    dimensions agree for every gain and every alpha; this check computes
    both sides independently, with the same rank rule.
    """
    n = integer(n, "n")
    point = 2j * np.pi * n / cm.delay
    dim_open, _ = resonating_center(cm.jacobian, cm.delay, n, tol)
    dim_ctrl = _kernel(cm.value(point), cm.jacobian, tol).shape[1]
    return ResonanceInvariance(n, point, dim_open, dim_ctrl)


# ---------------------------------------------------------------------------
# homotopy in the feedback strength


@dataclass(frozen=True)
class HomotopyTrace:
    steps: tuple[tuple[float, SpectrumReport], ...]

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.steps)

    def unstable_counts(self) -> tuple[int, ...]:
        return tuple(rep.unstable_count() for _, rep in self.steps)


def _expanded_positions(report: SpectrumReport) -> list[complex]:
    return [r.value for r in report.all_roots for _ in range(r.algebraic)]


def _greedy_matches(
    prev: Sequence[complex], new: Sequence[complex], cutoff: float = np.inf
) -> list[tuple[float, int, int]]:
    """Greedy nearest-first matching: the (distance, i, j) triples pairing
    prev[i] with new[j], in increasing distance with ties broken by
    (i, j), each point used at most once and no pair beyond ``cutoff``."""
    cand = sorted((abs(p - q), i, j) for i, p in enumerate(prev) for j, q in enumerate(new))
    used_i: set[int] = set()
    used_j: set[int] = set()
    matches: list[tuple[float, int, int]] = []
    for d, i, j in cand:
        if d > cutoff or len(matches) == min(len(prev), len(new)):
            break
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            matches.append((d, i, j))
    return matches


def matched_movement(prev: Sequence[complex], new: Sequence[complex]) -> float:
    """Largest distance between matched points of two spectra, matched
    greedily nearest pair first; unmatched points (roots or multipliers
    entering or leaving through the region boundary) do not count as
    movement."""
    return max((d for d, _, _ in _greedy_matches(prev, new)), default=0.0)


def continuation(
    report: Callable[[float], object],
    positions: Callable[[object], Sequence[complex]],
    parameters: Sequence[float],
    tol: Tolerances,
    label: str = "parameter gap",
) -> tuple[tuple[float, object], ...]:
    """Reports at the increasing ``parameters``, refined by bisection until
    matched ``positions`` move at most ``tol.step_cap`` between neighbours.

    Every neighbouring pair that moves too far gets its midpoint.  A pair
    closer than max(tol.min_step * span, 1e-12) that still moves too far
    raises :class:`ContinuationError`; ``label`` names the gap in the
    message.  That floor also bounds the work, to the order of span /
    floor samples.  Returns the (parameter, report) pairs in increasing
    parameter.
    """
    samples = {s: report(s) for s in parameters}
    min_gap = max(tol.min_step * (parameters[-1] - parameters[0]), 1e-12)
    work = list(zip(parameters, parameters[1:]))
    while work:
        a, b = work.pop()
        move = matched_movement(positions(samples[a]), positions(samples[b]))
        if move <= tol.step_cap:
            continue
        if b - a <= min_gap:
            raise ContinuationError(f"spectrum moved {move:.3g} over {label} {b - a:.3g}")
        mid = 0.5 * (a + b)
        samples[mid] = report(mid)
        work += [(a, mid), (mid, b)]
    return tuple(sorted(samples.items()))


def homotopy_trace(
    cm: CharacteristicMatrix,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
) -> HomotopyTrace:
    """Spectrum reports along alpha from 0 to full strength.

    The nine equispaced alphas 0, 1/8, ..., 1 are refined by
    :func:`continuation` until matched roots move at most ``tol.step_cap``
    between consecutive reports; an alpha step below ``tol.min_step``
    that still moves too far raises :class:`ContinuationError`.  The
    region is fixed once (sized for the full gain) so counts are
    comparable across steps; every report also carries the marginal
    roots, which matter for the parity bookkeeping.
    """
    region = region or default_region(cm, tol)
    base = cm.alpha

    def report(s: float) -> SpectrumReport:
        return _spectrum(cm.with_alpha(base * s), region, tol, scan_band=True)

    alphas = [i / 8 for i in range(9)]
    return HomotopyTrace(continuation(report, _expanded_positions, alphas, tol, "alpha step"))


# ---------------------------------------------------------------------------
# the common-eigenvector reduction, shared with the periodic rules


def relative_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """||AB - BA|| / (||A|| ||B||) in the Frobenius norm; 0.0 when A or B
    is zero."""
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return 0.0 if denom == 0.0 else float(np.linalg.norm(a @ b - b @ a) / denom)


def real_spectrum_hypothesis(gain: np.ndarray, tol: Tolerances) -> Hypothesis:
    """Whether the gain's eigenvalues are real to tol_spec relative."""
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


@dataclass(frozen=True)
class CommonEigenpair:
    exponent: complex
    gain_eigenvalue: complex
    vector: np.ndarray
    residual_generator: float
    residual_gain: float
    real_gain: bool


def common_eigenpair(
    generator: np.ndarray,
    gain: np.ndarray,
    exponent: complex,
    tol: Tolerances = DEFAULT,
) -> tuple[CommonEigenpair, ...]:
    """Joint eigenvectors of the linear part ``generator`` (J or B, at its
    eigenvalue ``exponent``) and the commuting gain, in the order of the
    restricted gain's eigenvalues.

    Restricting K to the eigenspace of the linear part is legitimate
    exactly because the two commute, so the restriction's eigenpairs lift
    to common eigenvectors.  When the eigenspace is real and has odd
    dimension, the real restriction necessarily has a real eigenvalue,
    which is what lets the real-spectrum hypothesis be dropped in that case.
    """
    generator = np.asarray(generator)
    gain = np.asarray(gain)
    n = generator.shape[0]
    basis = _kernel(exponent * np.eye(n) - generator, generator, tol)
    if basis.shape[1] == 0:
        raise InputError(f"{exponent} is not an eigenvalue of the generator")
    restricted = basis.conj().T @ gain @ basis
    vals, vecs = np.linalg.eig(restricted)
    gn = max(1.0, spectral_norm(gain))
    bn = max(1.0, spectral_norm(generator))
    out = []
    for i in range(len(vals)):
        v = basis @ vecs[:, i]
        v = v / np.linalg.norm(v)
        res_b = float(np.linalg.norm(generator @ v - exponent * v)) / bn
        res_k = float(np.linalg.norm(gain @ v - vals[i] * v)) / gn
        real_gain = abs(vals[i].imag) <= tol.tol_spec * gn
        out.append(
            CommonEigenpair(complex(exponent), complex(vals[i]), v, res_b, res_k, real_gain)
        )
    return tuple(out)


def scalar_dominant_root(
    rate: complex, gain: complex, delay: float, tol: Tolerances = DEFAULT
) -> complex | None:
    """Rightmost root m, Re m > tol_axis, of m = rate + gain (1 - exp(-m T)), or None;
    the delay T is in (0, inf).

    m = rate + gain + W(x) / T, x = -gain T exp(-(rate + gain) T) (Corless et al., Adv.
    Comput. Math. 5, 1996); W is Wright omega at log x + 2 pi i b, finite as x overflows,
    Im log x in (-pi, pi]: b = 0 is the rightmost, b = +-1 cover the cut, where a zero's
    sign picks W_0 or W_-1.  Newton undoes the cancellation; a conjugate pair gives Im < 0."""
    rate, gain = complex(rate), complex(gain)
    delay = positive_finite(delay, "delay")
    m = rate
    if gain != 0:
        s = (rate + gain) * delay
        log_x = np.log(-gain * delay * np.exp(-1j * s.imag)) - s.real
        omega = scipy.special.wrightomega(log_x + 2j * np.pi * np.arange(-1, 2))
        m = rate + gain + omega[np.argmax(omega.real)] / delay
        for _ in range(2):  # a zero slope is a double root, at W's branch point
            slope = 1.0 - gain * delay * np.exp(-m * delay)
            m -= (m - rate + gain * np.expm1(-m * delay)) / slope if slope else 0.0
    if not np.isfinite(m):
        raise NumericalError(f"no finite root of m = {rate} + {gain} (1 - exp(-{delay} m))")
    m = m.conjugate() if rate.imag == gain.imag == 0 and m.imag > 0 else m
    return complex(m) if m.real > tol.tol_axis else None


def reduced_root(
    pairs: Sequence[CommonEigenpair],
    rate: float,
    delay: float,
    real: bool,
    tol: Tolerances = DEFAULT,
) -> complex | None:
    """Unstable root m of the reduced equation m = rate + k (1 - exp(-m T)),
    or None, from :func:`scalar_dominant_root`.

    With ``real``, k is the gain eigenvalue closest to real, required to be
    real, and m (real and positive when rate > 0) is a float; otherwise k is
    the first pair's gain eigenvalue, possibly complex.  The caller maps m
    back: m + 2 pi n i / T for an equilibrium, exp(m T) for an orbit."""
    k = pairs[0].gain_eigenvalue if pairs else None
    if real:
        pair = min(pairs, key=lambda p: abs(p.gain_eigenvalue.imag), default=None)
        k = pair.gain_eigenvalue.real if pair is not None and pair.real_gain else None
    m = None if k is None else scalar_dominant_root(rate, k, delay, tol)
    return m.real if real and m is not None else m


# ---------------------------------------------------------------------------
# exclusion rules for equilibria


def _resonant_pairs(
    eigs: np.ndarray, scale: float, delay: float, tol: Tolerances
) -> list[tuple[complex, int]]:
    """Eigenvalues ``eigs`` of J of the form lambda* + 2 pi n i / delay with
    lambda* > 0, sorted by descending real part; ``scale`` is 1 + ||J||."""
    base = 2.0 * np.pi / delay
    n_max = _resonant_lines(len(eigs))
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


def equilibrium_verdicts(
    problem: EquilibriumProblem, tol: Tolerances = DEFAULT
) -> tuple[Verdict, ...]:
    """The three exclusion rules for an equilibrium.

    Rules, in order: the odd-number rule (J nonsingular with an odd count
    of eigenvalues in the open right half plane, so a real positive root
    survives every gain and delay); the commuting rule with real gain
    spectrum; and the commuting rule with no spectral condition.  Both
    commuting rules need an unstable eigenvalue lambda* + 2 pi n i / T of J
    on a resonant line and a gain commuting with J; their witness is the
    closed-form root of the reduced equation (:func:`reduced_root`) shifted
    back to the line.  One eigendecomposition of J, one resonance search,
    one commutator and one set of common eigenpairs serve all three rules.
    """
    jac = problem.jacobian()
    gain = problem.feedback.gain
    delay = problem.feedback.delay
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
    v_odd = Verdict.from_hypotheses(
        "odd-number", (h_nonsing, h_odd), lambda: complex(eigs[np.argmax(eigs.real)])
    )

    hits = _resonant_pairs(eigs, scale, delay, tol)
    detail_res = (
        f"eigenvalue {hits[0][0]:.6g} matches n={hits[0][1]}"
        if hits
        else "no unstable eigenvalue with Im a multiple of 2 pi / T"
    )
    comm = relative_commutator(jac, gain)
    h_comm = Hypothesis(
        "gain commutes with the linearization",
        comm <= tol.tol_comm,
        f"relative commutator norm {comm:.3e}",
        value=comm,
        tolerance=tol.tol_comm,
    )

    pairs = ()
    if hits and h_comm.passed:
        try:
            pairs = common_eigenpair(jac, gain, hits[0][0], tol)
        except InputError:  # no eigenspace resolved at the computed eigenvalue
            pass

    def witness(real: bool) -> complex | None:
        eig, n = hits[0]
        m = reduced_root(pairs, eig.real, delay, real, tol)
        return None if m is None else m + 2j * np.pi * n / delay

    h_line = Hypothesis("unstable eigenvalue on a resonant line", bool(hits), detail_res)
    hyps_real = (h_line, h_comm, real_spectrum_hypothesis(gain, tol))
    v_real = Verdict.from_hypotheses(
        "commuting-real-spectrum", hyps_real, lambda: witness(real=True)
    )

    h_pair = Hypothesis("unstable eigenvalue pair on resonant lines", bool(hits), detail_res)
    v_any = Verdict.from_hypotheses(
        "commuting-gain", (h_pair, h_comm), lambda: witness(real=False)
    )
    return (v_odd, v_real, v_any)


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
    k*(omega) = (i omega - rate) / (1 - exp(-i omega T)), T in (0, inf)."""
    delay = positive_finite(delay, "delay")
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
    crossing bookkeeping built on these curves.  ``branches`` holds
    nonnegative integers and ``samples`` is an integer of at least 2.
    """
    rate = positive_finite(rate, "rate")
    delay = positive_finite(delay, "delay")
    samples = integer(samples, "samples", 2)
    out = []
    base = 2.0 * np.pi / delay
    for m in branches:
        m = integer(m, "branch indices", 0)
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


def _assign_traces(
    active: dict[int, complex], values: Sequence[complex], cutoff: float
) -> dict[int, int]:
    """Trace id for each index of ``values`` that continues a trace: the
    traces are matched in ascending id, so ties break by (distance, trace
    id, root index)."""
    ids = sorted(active)
    matches = _greedy_matches([active[tid] for tid in ids], values, cutoff)
    return {j: ids[i] for _, i, j in matches}


def eigenvalue_locus(
    jacobian: np.ndarray,
    delay: float,
    path: GainPath,
    region: Region | None = None,
    tol: Tolerances = DEFAULT,
) -> LocusResult:
    """Characteristic roots tracked along a path of gain matrices.

    The path's own parameters are refined by :func:`continuation` until
    matched roots move at most ``tol.step_cap`` between neighbours, then
    greedy nearest matching threads them into traces; roots entering or
    leaving the region start or end a trace.
    """
    jacobian = np.asarray(jacobian)
    if region is None:
        widest = max(path.gains, key=spectral_norm)
        region = default_region(CharacteristicMatrix(jacobian, widest, delay), tol)

    def report(s: float) -> SpectrumReport:
        cm = CharacteristicMatrix(jacobian, path.gain_at(s), delay)
        return find_roots(cm, region, tol)

    samples = continuation(report, _expanded_positions, path.parameter, tol)

    traces: dict[int, list[LocusPoint]] = {}
    active: dict[int, complex] = {}
    for s, rep in samples:
        roots = rep.all_roots
        assignment = _assign_traces(active, [r.value for r in roots], 2.0 * tol.step_cap)
        new_active: dict[int, complex] = {}
        for idx, r in enumerate(roots):
            tid = assignment.get(idx, len(traces))  # ids count up from 0
            traces.setdefault(tid, []).append(LocusPoint(s, r.value, r.algebraic, r.geometric))
            new_active[tid] = r.value
        active = new_active

    trace_objs = tuple(
        LocusTrace(tid, tuple(pts)) for tid, pts in sorted(traces.items())
    )
    return LocusResult(trace_objs, samples)
