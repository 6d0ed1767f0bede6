"""Floquet analysis of periodic linear systems with period-matched delay.

Two monodromy operators live here.  The ordinary one, Y(T) of
x' = A(t) x, comes from fixed-step RK4 with a Richardson error estimate.
The delay one propagates a history segment on [-T, 0] through one period
of x' = A(t) x + alpha K [x(t) - x(t-T)] and is discretized on a
Chebyshev-Lobatto grid in two independent ways -- a variation-of-constants
integral form and a Chebyshev collocation of the delay equation -- which
must agree; their disagreement is reported and fenced by a tolerance, so
a coarse grid fails loudly instead of lying.

Both forms read the history through the same quadrature marks, the
2 nodes - 1 Lobatto points of the doubled grid.  The integral form
marches the fundamental solution of A(t) + alpha K and steps on to every
mark; the collocation form solves one dense linear system on the marks
themselves.  They share only sampled inputs, A + alpha K at the marks
and the rows that interpolate the history from its nodes to the marks,
never a march, so the cross-check compares two constructions.  Their gap
is measured by an O(N^2) upper bound on the relative spectral-norm
difference (``relative_gap_bound``), never by an SVD.

Every march runs through one RK4 routine, ``_rk4``.  The equations are
linear, so every RK4 step is an affine map Y -> Y + D Y.  The steps are
taken in blocks cut to a fixed element budget at n * n elements per step,
so at n = 2 a march of 16k steps is one block.  Per block the increments
D are built from the batched coefficient samples with a few array
products and composed in increment form by one two-level work-efficient
prefix scan, rather than applied step by step, and snapshots are stored
only at the grid indices the caller reads, so memory stays bounded
however fine the grid.

Every march grid is linspace(0, T, steps + 1) with its step midpoints, a
uniform grid of 2 steps intervals.  ``_stage_coefficients`` samples the
coefficient a march reads: a coefficient with its own uniform-grid
evaluation (a ``TrigCoefficient``, by one inverse FFT) on that grid at
once, any other through ``coefficient_on``.  A time between grid points
is reached by one rule, ``_step_to``: one RK4 step from the grid point at
or before it, with the coefficient sampled at that step's three times.
``MonodromyODE.value_at`` and the delay monodromy's marks both use it.

The exclusion rules use the common-eigenvector reduction that
``equilibria`` defines for both settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chebyshev import (
    barycentric_weights,
    cumulative_matrix,
    differentiation_matrix,
    interp_rows,
    lobatto_nodes,
)
from .equilibria import (
    common_eigenpair,
    real_spectrum_hypothesis,
    reduced_root,
    relative_commutator,
)
from .errors import (
    CrossCheckError,
    InconclusiveMultiplicityError,
    InputError,
    NumericalError,
    SingularMonodromyError,
)
from .linalg import (
    SchurForm,
    cluster_multiplicity,
    relative_gap_bound,
    schur_complement,
    spectral_norm,
    svd_rank,
)
from .problems import PeriodicLinearProblem
from .tolerances import DEFAULT, Tolerances
from .verdicts import Hypothesis, Verdict

__all__ = [
    "MonodromyODE",
    "ode_monodromy",
    "BranchPoint",
    "FloquetDecomposition",
    "floquet_decompose",
    "MultiplierEntry",
    "MultiplierReport",
    "multipliers",
    "MonodromyDDE",
    "dde_monodromy",
    "DeterminingInvariance",
    "check_determining_invariance",
    "periodic_verdicts",
]


# ---------------------------------------------------------------------------
# time stepping

# Elements of a march's per-step arrays in one block: blocks are cut to
# _BUDGET // (n * n) steps, whose block-long arrays are the increments and
# their composites.  This bounds every temporary independently of the
# grid; at n = 2 a march of 16k steps is one block.
_BUDGET = 2**16

# Times per call of a coefficient's batch evaluation, which bounds its own
# temporaries (a ``TrigCoefficient``'s phase table) in the same way.
_SAMPLE_BATCH = 256

_Stages = tuple[np.ndarray, np.ndarray]


def _sampled(problem: PeriodicLinearProblem, times: np.ndarray) -> np.ndarray:
    """A at every time through ``problem.coefficient_on``, _SAMPLE_BATCH
    times per call."""
    blocks = range(0, len(times), _SAMPLE_BATCH)
    return np.concatenate([problem.coefficient_on(times[lo : lo + _SAMPLE_BATCH])
                           for lo in blocks])


def _stage_coefficients(problem: PeriodicLinearProblem, steps: int) -> _Stages:
    """A at the grid points linspace(0, T, steps + 1), T = problem.period,
    and at their step midpoints: every coefficient an RK4 march over that
    grid reads.

    A coefficient with its own uniform-grid evaluation ``on_grid`` (a
    ``TrigCoefficient``) is sampled at j T / (2 steps), j = 0..2 steps, at
    once: the grid points at even j and the midpoints at odd j.  Any other
    coefficient goes through ``coefficient_on``.
    """
    on_grid = getattr(problem.coefficient, "on_grid", None)
    if on_grid is not None:
        uniform = np.asarray(on_grid(2 * steps), dtype=float)
        return uniform[::2], uniform[1::2]
    grid = np.linspace(0.0, problem.period, steps + 1)
    return _sampled(problem, grid), _sampled(problem, grid[:-1] + 0.5 * np.diff(grid))


def _grid_before(grid: np.ndarray, t) -> np.ndarray:
    """Index of the grid point at or before each time t, clipped to the
    starts of the grid's steps, 0..len(grid) - 2."""
    return np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)


def _step_to(
    problem: PeriodicLinearProblem, t0: np.ndarray, y0: np.ndarray, t: np.ndarray,
    shift: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Y (P, n, n) at the times t, each one RK4 step of Y' = (A(t) + shift) Y
    from Y = y0 at t0 <= t, and A + shift at t.

    The one rule by which a march reaches a time off its grid; a t on the
    grid has h = 0 and gets its grid value exactly.  A is sampled through
    ``coefficient_on``, t0 and t in one call and the midpoints in another:
    a batch evaluation may round a time differently in another grouping.
    """
    h = t - t0
    a0, a1 = np.split(_sampled(problem, np.concatenate([t0, t])) + shift, 2)
    am = _sampled(problem, t0 + 0.5 * h) + shift
    return y0 + _step_maps(h, a0, am, a1) @ y0, a1


def _step_maps(
    h: np.ndarray, a0: np.ndarray, am: np.ndarray, a1: np.ndarray
) -> np.ndarray:
    """RK4 step increments D (S, n, n) of Y' = A(t) Y: one step of size
    h[k] maps Y to Y + D[k] Y, given A at the step's start, midpoint and
    end.

    I + D[k] is RK4's stability polynomial on the sampled coefficients,
    built by the stage recursion K1 = A0, K2 = Am (I + h/2 K1),
    K3 = Am (I + h/2 K2), K4 = A1 (I + h K3), D = h/6 (K1 + 2 K2 + 2 K3
    + K4), for all steps of a block at once.  The identity is left out on
    purpose: I + D stored in floating point drops the low bits of D in
    the same way at every step, and over 16k steps of a constant
    coefficient that bias grows to ~1e-12 relative, where Y + D Y rounds
    like the stage loop.
    """
    eye = np.eye(a0.shape[-1])
    h = h[:, None, None]
    k2 = am @ (eye + 0.5 * h * a0)
    k3 = am @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    return (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _scan(x: np.ndarray) -> np.ndarray:
    """Inclusive prefix scan of step increments x (L, n, n): entry k is the
    composite increment of steps 0..k.

    Map D1 followed by map D2 is the map D1 + D2 + D2 D1, so composites
    stay in increment form and I + D is never stored (see ``_step_maps``).
    Two levels, a work-efficient scan (Blelloch, CMU-CS-90-190, 1990): the
    entries are cut into about sqrt(L) runs, each run is composed
    sequentially with all runs in step, the run totals are scanned by the
    same routine, and every entry is joined to the total before its run;
    about two products per entry.  The runs are stored position-major, so
    each sequential step reads and writes contiguous (runs, n, n) slabs.  A
    zero increment is exactly the identity map, so padding to whole runs
    is exact.
    """
    size = len(x)
    if size == 1:
        return x.copy()
    run = math.isqrt(size - 1) + 1
    runs = -(-size // run)
    shape = x.shape[1:]
    flat = np.zeros((runs * run,) + shape)
    flat[:size] = x
    c = flat.reshape((runs, run) + shape).swapaxes(0, 1).copy()  # c[j, i]: entry i run + j
    for j in range(1, run):
        prev, cur = c[j - 1], c[j]
        joined = cur @ prev
        cur += prev
        cur += joined
    if runs > 1:
        lead, body = _scan(c[-1])[:-1], c[:, 1:]
        joined = body @ lead
        body += lead
        body += joined
    return c.swapaxes(0, 1).reshape((-1,) + shape)[:size]


def _block_steps(y: np.ndarray) -> int:
    """Steps per block of a march of Y (n, n): _BUDGET over the n * n
    elements per step (see _BUDGET)."""
    n = y.shape[0]
    return max(1, _BUDGET // (n * n))


@np.errstate(over="ignore", invalid="ignore")  # a blow-up raises NumericalError below
def _rk4(
    times: np.ndarray, stages: _Stages, y0: np.ndarray, keep: np.ndarray | list[int]
) -> np.ndarray:
    """Classical RK4 for Y' = A(t) Y through ``times``; returns Y at the
    grid indices ``keep``, stacked in their order.

    The equation is linear, so each step is an affine map Y -> Y + D Y,
    and the march composes these maps per block instead of applying them
    one by one.  A block holds as many steps as the element budget
    _BUDGET allows for the march's per-step arrays (``_block_steps``).
    ``stages`` holds A at the grid points and midpoints (see
    ``_stage_coefficients``).  A two-level prefix scan of the block's
    increments (``_scan``) gives the composite E_k of its first k steps,
    and every kept snapshot in the block is Y_lo + E_k Y_lo at once.  No
    composite is inverted and only the kept snapshots are stored.
    """
    kept, slot = np.unique(np.asarray(keep, dtype=np.intp) % len(times), return_inverse=True)
    out = np.empty((len(kept),) + y0.shape)
    y = np.array(y0, dtype=float)
    out[kept == 0] = y
    block = _block_steps(y)
    for lo in range(0, len(times) - 1, block):
        hi = min(lo + block, len(times) - 1)
        here = slice(*np.searchsorted(kept, [lo, hi], side="right"))
        y = _rk4_block(times[lo : hi + 1], stages[0][lo : hi + 1], stages[1][lo:hi],
                       y, kept[here] - lo, out[here])
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(out))):
        raise NumericalError("RK4 march blew up")
    return out[slot]


def _rk4_block(
    t: np.ndarray,
    a: np.ndarray,
    a_mid: np.ndarray,
    y: np.ndarray,
    inside: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One block of ``_rk4`` through the grid points ``t``, with A at them
    (``a``) and at their midpoints (``a_mid``): writes Y at the block's
    kept steps ``inside`` (ascending, in 1..S) to ``out`` and returns Y at
    its end.  The block's step increments and composites are locals, so
    they are freed before the next block's are built."""
    e = _scan(_step_maps(np.diff(t), a[:-1], a_mid, a[1:]))
    out[:] = y + e[inside - 1] @ y
    return y + e[-1] @ y


# ---------------------------------------------------------------------------
# ordinary monodromy


def _finite_time(t) -> float:
    t = float(t)
    if not np.isfinite(t):
        raise InputError(f"time must be finite, got {t}")
    return t


def _finite_value(y: np.ndarray, t: float, what: str) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"{what} overflows at t = {t:.6g}")
    return y


@dataclass(frozen=True)
class MonodromyODE:
    """Fundamental solution of x' = A(t) x sampled over one period."""

    problem: PeriodicLinearProblem
    times: np.ndarray
    values: np.ndarray
    error_estimate: float

    @property
    def matrix(self) -> np.ndarray:
        return self.values[-1]

    @property
    def period(self) -> float:
        return self.problem.period

    def value_at(self, t: float) -> np.ndarray:
        """Y(t) for t >= 0, using Y(t + T) = Y(t) Y(T) beyond one period.

        NumericalError is raised for a t so far out that Y(t) leaves the
        double range, and for one q = t // T periods out with
        (q - 1) max(error_estimate, eps) > tol_log: the power Y(T)^q
        compounds the monodromy's error into a wrong but finite matrix.
        Within two periods (q <= 1) Y(T) is used at most once, so nothing
        compounds and even a coarse monodromy returns its own value."""
        t = _finite_time(t)
        period = self.period
        if t < -1e-12 * period:
            raise InputError("fundamental solution is only sampled forward in time")
        q, r = divmod(max(t, 0.0), period)
        q = int(q)
        if r > period * (1.0 - 1e-13):
            r = 0.0
            q += 1
        base = self._value_in_period(r)
        if q == 0:
            return base
        with np.errstate(over="ignore", invalid="ignore"):
            y = base @ np.linalg.matrix_power(self.matrix, q)
        y = _finite_value(y, t, "fundamental solution")
        if (q - 1) * max(self.error_estimate, np.finfo(float).eps) > DEFAULT.tol_log:
            raise NumericalError(
                f"fundamental solution at t = {t:.6g} compounds the monodromy's "
                f"error over {q} periods"
            )
        return y

    def _value_in_period(self, r: float) -> np.ndarray:
        idx = int(_grid_before(self.times, r))
        t0 = self.times[idx]
        if r - t0 <= 1e-13 * self.period:
            return self.values[idx].copy()
        y, _ = _step_to(self.problem, np.array([t0]), self.values[idx : idx + 1], np.array([r]))
        return y[0]


def ode_monodromy(
    problem: PeriodicLinearProblem, steps: int = 2048
) -> MonodromyODE:
    """Monodromy of the uncontrolled system (the delayed difference term
    vanishes on periodic solutions, so the gain plays no role here).  The
    Richardson estimate marches every other grid point, with the odd ones as
    midpoints, so ``steps`` must be even."""
    steps = _integer_at_least(steps, "steps", 16)
    if steps % 2:
        raise InputError(f"steps must be even, got {steps}")
    eye = np.eye(problem.dimension)
    times = np.linspace(0.0, problem.period, steps + 1)
    stages = _stage_coefficients(problem, steps)
    values = _rk4(times, stages, eye, np.arange(steps + 1))
    coarse = _rk4(times[::2], (stages[0][::2], stages[0][1::2]), eye, [-1])
    scale = max(1.0, spectral_norm(values[-1]))
    err = spectral_norm(values[-1] - coarse[-1]) / (15.0 * scale)
    return MonodromyODE(problem, times, values, float(err))


# ---------------------------------------------------------------------------
# Floquet decomposition Y(t) = P(t) expm(B t)


def _multiplier_order(mu: complex) -> tuple[float, float, float]:
    """The order multipliers are listed in, which fixes the envelopes:
    descending modulus, then ascending real and imaginary part."""
    return (-abs(mu), mu.real, mu.imag)


@dataclass(frozen=True)
class BranchPoint:
    """One multiplier with its principal exponent; multipliers on the
    negative real axis sit on the logarithm's branch cut."""

    multiplier: complex
    exponent: complex
    on_negative_axis: bool


@dataclass(frozen=True)
class FloquetDecomposition:
    monodromy: MonodromyODE
    generator: np.ndarray
    branches: tuple[BranchPoint, ...]
    log_residual: float

    @property
    def period(self) -> float:
        return self.monodromy.period

    def exponential_factor(self, t: float) -> np.ndarray:
        t = _finite_time(t)
        with np.errstate(over="ignore", invalid="ignore"):
            e = scipy.linalg.expm(self.generator * t)
        return _finite_value(e, t, "exponential factor")

    def periodic_factor(self, t: float) -> np.ndarray:
        """P(t) = Y(t) expm(-B t); P(t + T) = P(t) by construction."""
        return self._periodic_factors([t])[0]

    def _periodic_factors(self, times) -> np.ndarray:
        """P at every time, stacked, from one batched expm."""
        ys = np.stack([self.monodromy.value_at(t) for t in times])
        times = np.array([float(t) for t in times])
        with np.errstate(over="ignore", invalid="ignore"):
            ps = ys @ scipy.linalg.expm(-self.generator * times[:, None, None])
        for p, t in zip(ps, times):
            _finite_value(p, t, "periodic factor")
        return ps


def floquet_decompose(
    monodromy: MonodromyODE, tol: Tolerances = DEFAULT
) -> FloquetDecomposition:
    """Principal-branch Floquet form of the sampled fundamental solution.

    B = logm(Y(T)) / T with the scipy principal matrix logarithm; the
    reconstruction expm(B T) is compared against Y(T) and a relative
    mismatch above tol_log raises.  Multipliers within the rank cutoff of
    zero make the logarithm meaningless and raise instead.
    """
    y_t = monodromy.matrix
    n = y_t.shape[0]
    eigs = np.linalg.eigvals(y_t)
    biggest = float(np.max(np.abs(eigs)))
    cutoff = n * np.finfo(float).eps * biggest * tol.rank_factor
    if float(np.min(np.abs(eigs))) <= cutoff:
        raise SingularMonodromyError(
            "monodromy matrix has an eigenvalue numerically at zero"
        )
    generator = scipy.linalg.logm(y_t) / monodromy.period
    if np.iscomplexobj(generator) and np.max(np.abs(generator.imag)) <= 1e-14 * max(
        1.0, np.max(np.abs(generator.real))
    ):
        generator = generator.real
    recon = scipy.linalg.expm(generator * monodromy.period)
    resid = spectral_norm(recon - y_t) / max(1.0, spectral_norm(y_t))
    if resid > tol.tol_log:
        raise NumericalError(
            f"matrix logarithm residual {resid:.3e} exceeds {tol.tol_log:.1e}"
        )
    branches = []
    for mu in sorted(eigs, key=_multiplier_order):
        mu = complex(mu)
        on_cut = mu.real < 0.0 and abs(mu.imag) <= 1e-9 * abs(mu)
        branches.append(BranchPoint(mu, np.log(mu) / monodromy.period, on_cut))
    return FloquetDecomposition(monodromy, generator, tuple(branches), float(resid))


# ---------------------------------------------------------------------------
# multiplier reports


@dataclass(frozen=True)
class MultiplierEntry:
    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class MultiplierReport:
    """Clustered eigenvalues of a monodromy matrix.

    ``entries`` keep only multipliers above ``floor`` (discretized delay
    operators produce a spurious cloud near zero); the counts are taken
    over the full spectrum and every multiplier obeys
    |mu| <= ``norm_bound``.
    """

    entries: tuple[MultiplierEntry, ...]
    outside_count: int
    circle_count: int
    unit_algebraic: int
    unit_geometric: int
    norm_bound: float
    floor: float

    def _real_beyond_one(self, tol: Tolerances = DEFAULT) -> list[MultiplierEntry]:
        """Entries mu with Re mu > 1 + tol_one and |Im mu| <= tol_circle max(1, |mu|)."""
        return [e for e in self.entries if e.value.real > 1.0 + tol.tol_one
                and abs(e.value.imag) <= tol.tol_circle * max(1.0, abs(e.value))]

    def real_greater_one(self, tol: Tolerances = DEFAULT) -> int:
        """Algebraic count of real multipliers strictly beyond 1 + tol_one,
        where a multiplier is real when |Im mu| <= tol_circle max(1, |mu|):
        the test the odd-number rule of :func:`periodic_verdicts` applies."""
        return sum(e.algebraic for e in self._real_beyond_one(tol))

    @property
    def dominant(self) -> MultiplierEntry | None:
        return max(self.entries, key=lambda e: abs(e.value), default=None)


def multipliers(monodromy, tol: Tolerances = DEFAULT) -> MultiplierReport:
    """Cluster the spectrum of ``monodromy.matrix`` into a report.

    Works for both monodromy flavors.  Geometric multiplicity of a
    nontrivial cluster comes from the Schur-based rank of the cluster
    block, which stays meaningful for the non-normal matrices the delay
    discretization produces.  One Schur form gives both the spectrum and
    those multiplicities.

    On a delay monodromy M the unit counts are this Schur rule on M, which
    need not give the g_dde of :func:`check_determining_invariance` (from
    the Schur complement of M - I, which follows the ODE's multipliers): the
    gain moves a multiplier near 1 by about a factor |1 - k T|.  For x' =
    1e-7 x, gain 0.15, T = 2 pi, M's multiplier is 1 + 1.09e-5, so the
    report counts 0 at 1 while g_dde is 1.

    ``norm_bound`` is the exact spectral norm ||M||_2, one SVD, kept on
    purpose: it is a field of every periodic envelope, where ``analyze``
    passes only n x n monodromies and the SVD costs little, and a cheaper
    bound (||M||_F, or ``relative_gap_bound``'s) would move those
    envelopes.
    """
    mat = np.asarray(monodromy.matrix)
    form = SchurForm(mat)
    eigs = form.eigenvalues
    outside = int(np.sum(np.abs(eigs) > 1.0 + tol.tol_circle))
    on_circle = int(np.sum(np.abs(np.abs(eigs) - 1.0) <= tol.tol_circle))
    # greedy clustering: each multiplier joins the first cluster whose
    # centre, the mean of its members, lies within tol_one of it
    kept = [complex(e) for e in eigs if abs(e) > tol.mu_floor]
    kept.sort(key=_multiplier_order)
    members: list[list[complex]] = []
    centres = np.empty(len(kept), dtype=complex)
    for e in kept:
        d = centres[: len(members)] - e  # hypot rounds like scalar abs
        near = np.flatnonzero(np.hypot(d.real, d.imag) <= tol.tol_one * max(1.0, abs(e)))
        i = int(near[0]) if len(near) else len(members)
        if i == len(members):
            members.append([])
        members[i].append(e)
        centres[i] = np.mean(members[i])

    # the same real Schur form (of a real monodromy) for the unit cluster
    # and every repeated multiplier
    values = [complex(c) for c in centres[: len(members)]]
    wanted = [(1.0 + 0.0j, tol.tol_one)] + [
        (v, max(abs(z - v) for z in c) + tol.tol_one * max(1.0, abs(v)))
        for v, c in zip(values, members) if len(c) > 1
    ]
    counts = iter(form.multiplicities(wanted, tol.rank_factor))
    unit_alg, unit_geo = next(counts)
    entries = []
    for v, c in zip(values, members):
        alg, geo = next(counts) if len(c) > 1 else (1, 1)
        entries.append(MultiplierEntry(v, max(len(c), alg), geo))
    entries.sort(key=lambda e: _multiplier_order(e.value))
    return MultiplierReport(
        tuple(entries),
        outside,
        on_circle,
        unit_alg,
        unit_geo,
        spectral_norm(mat),
        float(tol.mu_floor),
    )


# ---------------------------------------------------------------------------
# delay monodromy on a Chebyshev history grid


@dataclass(frozen=True)
class MonodromyDDE:
    """Discretized time-T solution operator of the controlled system,
    acting on history node values (node-major layout: component c of node
    j sits at index j * n + c).

    ``matrix`` is the integral form and ``matrix_collocated`` the
    collocation form (see :func:`dde_monodromy`); ``cross_residual`` is an
    upper bound on their relative spectral-norm gap ||matrix -
    matrix_collocated||_2 / max(1, ||matrix||_2), never below it (see
    ``linalg.relative_gap_bound``)."""

    problem: PeriodicLinearProblem
    alpha: float
    nodes: np.ndarray
    matrix: np.ndarray
    matrix_collocated: np.ndarray
    cross_residual: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _integer_at_least(value, what: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{what} must be at least {least}, got {value}")
    return int(value)


def _integral_form(
    y_fine: np.ndarray, sigma: np.ndarray, resample: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """The integral form of the delay monodromy (see :func:`dde_monodromy`)
    from the fundamental solution ``y_fine`` (P, n, n) of A + alpha K at
    the P marks T + ``sigma``, with ``resample`` and ``gain`` as in
    ``_collocation``."""
    fine, nodes = resample.shape
    n = gain.shape[0]
    y_marks = y_fine[::2]  # Y(T + theta_i)
    try:
        w_fine = np.linalg.solve(y_fine, np.broadcast_to(gain, y_fine.shape))
    except np.linalg.LinAlgError as err:
        raise NumericalError("fundamental solution is singular at a quadrature mark") from err
    # cumulative[i, j] = int_{-T}^{theta_i} Y(T + s)^{-1} alpha K ell_j(s) ds
    integrand = resample[:, :, None, None] * w_fine[:, None, :, :]
    cumulative = cumulative_matrix(sigma)[::2] @ integrand.reshape(fine, nodes * n * n)
    # big[i, :, j, :] = -Y(T + theta_i) cumulative[i, j], one batched product
    big = (y_marks[:, None] @ -cumulative.reshape(nodes, nodes, n, n)).transpose(0, 2, 1, 3)
    big[:, :, nodes - 1, :] += y_marks
    return big.reshape(nodes * n, nodes * n)


def _collocation(
    marks: np.ndarray, a_marks: np.ndarray, resample: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """Monodromy of x' = B(t) x - G phi(t - T), collocated at the P
    Lobatto ``marks`` on [0, T]: B at the marks is ``a_marks`` (P, n, n), G
    is ``gain`` and ``resample`` (P, M) interpolates the history phi from
    its M nodes to the marks less T.  Mark 2 i is T plus history node i.

    With D the differentiation matrix on the marks, the values X of x at
    the marks solve L X = R Phi, L = D kron I - blockdiag(B at the marks)
    and R = resample kron (-G), whose first block rows are replaced by
    x(0) = phi(0), the history's last node.  The monodromy is every other
    block row of L^-1 R.  L and R are built transposed, so L^T and R^T are
    C-ordered and L and R Fortran-ordered, and LAPACK factors and solves
    them in place, without a copy of either.
    """
    fine, n = a_marks.shape[:2]
    nodes = resample.shape[1]
    eye = np.eye(n)
    lt = np.zeros((fine, n, fine, n))  # lt[q, b, p, a] = L[p n + a, q n + b]
    diff_t = differentiation_matrix(marks).T
    for c in range(n):
        lt[:, c, :, c] = diff_t
    p = np.arange(fine)
    lt[p, :, p, :] -= a_marks.transpose(0, 2, 1)
    lt[:, :, 0, :] = 0.0
    lt[0, :, 0, :] = eye
    rt = resample.T[:, None, :, None] * -gain.T[:, None, :]  # rt[j, b, p, a] = R[p n + a, j n + b]
    rt[:, :, 0, :] = 0.0
    rt[-1, :, 0, :] = eye
    lu = scipy.linalg.lu_factor(lt.reshape(fine * n, fine * n).T, overwrite_a=True,
                                check_finite=False)
    x = scipy.linalg.lu_solve(lu, rt.reshape(nodes * n, fine * n).T, overwrite_b=True,
                              check_finite=False)
    return x[np.arange(fine * n).reshape(fine, n)[::2].ravel()]


def dde_monodromy(
    problem: PeriodicLinearProblem,
    alpha: float = 1.0,
    nodes: int = 64,
    tol: Tolerances = DEFAULT,
    steps: int = 2048,
) -> MonodromyDDE:
    """Build the delay monodromy twice and cross-check.

    Integral form: with Y the fundamental solution of A(t) + alpha K,
    variation of constants gives, for theta in [-T, 0],

        x(T + theta) = Y(T + theta) [ phi(0)
                        - int_{-T}^{theta} Y(T + s)^{-1} alpha K phi(s) ds ],

    and phi is collocated on the Lobatto grid of ``nodes`` points.  The
    integrand pairs the degree-(M-1) interpolation basis with a smooth
    matrix factor, so the quadrature runs on the doubled Lobatto grid of
    2 nodes - 1 marks (which contains the history nodes); sampling it on
    the coarse grid alone would alias the basis polynomials and stall the
    convergence near 1e-3.  Y comes from one RK4 march of ``steps`` steps
    on linspace(0, T, steps + 1) (see ``_rk4``), kept at the grid point at
    or before each mark, and one RK4 step from there to the mark (see
    ``_step_to``).

    Collocation form: x' = (A(t) + alpha K) x - alpha K phi(t - T) is
    collocated at the same marks (Butcher, Ma, Bueler, Averina & Szabo,
    Int. J. Numer. Meth. Eng. 59, 2004), one dense solve of size
    n (2 nodes - 1) and no march (see ``_collocation``).

    The two forms share only sampled inputs: A + alpha K at the marks,
    sampled for the steps to them, and the rows that interpolate phi from
    its nodes to the marks.  Both land on the same operator up to
    discretization error.  Their gap, reported as ``cross_residual``, is
    an O(N^2) upper bound on the relative spectral-norm difference
    ||integral - collocated||_2 / max(1, ||integral||_2), N = n * nodes
    (see ``linalg.relative_gap_bound``), never below the exact ratio; a
    gap above tol_xcheck, or one that is not a number, raises
    CrossCheckError.
    """
    nodes = _integer_at_least(nodes, "nodes", 4)
    if not np.isfinite(alpha):
        raise InputError("alpha must be finite")
    steps = _integer_at_least(steps, "steps", 16)
    n = problem.dimension
    period = problem.period
    gain = alpha * problem.feedback.gain
    theta = lobatto_nodes(nodes, -period, 0.0)
    sigma = lobatto_nodes(2 * nodes - 1, -period, 0.0)  # sigma[2i] == theta[i]
    marks = period + sigma

    # Y on the uniform grid, kept at the grid point at or before each mark,
    # then one step on to every mark, which also samples A + alpha K there
    grid = np.linspace(0.0, period, steps + 1)
    before = _grid_before(grid, marks)
    stages = _stage_coefficients(problem, steps)
    y_before = _rk4(grid, (stages[0] + gain, stages[1] + gain), np.eye(n), before)
    y_fine, a_marks = _step_to(problem, grid[before], y_before, marks, gain)

    # the two forms share only A + alpha K at the marks and these rows
    resample = interp_rows(theta, barycentric_weights(nodes), sigma)
    # each form is built by a helper, so its temporaries are freed on return
    integral_form = _integral_form(y_fine, sigma, resample, gain)
    collocated = _collocation(marks, a_marks, resample, gain)

    gap = relative_gap_bound(integral_form, collocated)
    if not gap <= tol.tol_xcheck:
        raise CrossCheckError(
            f"monodromy constructions disagree by {gap:.3e} at {nodes} nodes; "
            "refine the grid"
        )
    return MonodromyDDE(problem, alpha, theta, integral_form, collocated, float(gap))


# ---------------------------------------------------------------------------
# determining-center invariance

# Floor on 1 / ||A11^-1||_1, the distance from the leading block A11 of
# M - I to the singular matrices (see ``_unit_geometric``), below which the
# Schur complement is not trusted.  It is an absolute bound: a large
# multiplier makes ||A11|| large and the relative rcond small without A11
# coming near singular.  On the five periodic catalog cases at 16-128 nodes
# the bound is 0.059 on center-periodic (multiplier 2.87e5, rcond 1.8e-7)
# and 0.24-0.74 on the others, at least 590 times this floor; on random
# problems with n <= 6 and gains in [-0.5, 0.5] it stayed above 2e-3.
_A11_FLOOR = 1e-4

# S counts a singular value at most tol_one as zero, and one in
# (10 tol_one, _BAND * 10 tol_one] raises InconclusiveMultiplicityError.
# Eliminating the history's interior leaves the periodicity condition on
# phi(0) alone, so S is the ODE's Y(T) - I up to the discretization, and
# its singular values measure how far the ODE multipliers lie from 1: hence
# g_ode's radius tol_one.  The gain moves a multiplier of M near 1 by about
# a factor |1 - k T|, so a singular value of S in the band may belong to a
# multiplier of M within tol_one of 1, which the Schur rule on M would
# count.  On the periodic catalog at 16-128 nodes the zero singular values
# are at most 2.0e-8 (orbit-neutral at 16 nodes; 1.9e-10 from 32 nodes),
# 49x below tol_one, and the others at least 0.39 (trig-periodic), 39x
# above the band.
_BAND = 1e3


def _unit_geometric(matrix: np.ndarray, n: int, tol: Tolerances) -> int:
    """dim ker(M - I) of the delay monodromy M of an n-dimensional problem,
    from the n x n Schur complement S of M - I split before the n columns
    of phi(0) (see ``check_determining_invariance``, _A11_FLOOR and _BAND).
    """
    s, bound = schur_complement(matrix - np.eye(len(matrix)), n)
    if not bound >= _A11_FLOOR:
        raise NumericalError(
            f"leading block of M - I is {bound:.3e} from singular, below {_A11_FLOOR:.0e}"
        )
    svals = scipy.linalg.svdvals(s)
    low = 10.0 * tol.tol_one
    near = svals[(svals > low) & (svals <= _BAND * low)]
    if len(near):
        raise InconclusiveMultiplicityError(
            f"singular value {near[-1]:.3e} of the Schur complement of M - I lies "
            f"between {low:.1e} and {_BAND * low:.1e}"
        )
    return n - svd_rank(svals, n, tol.rank_factor, tol.tol_one)


@dataclass(frozen=True)
class DeterminingInvariance:
    g_ode: int
    g_dde: int
    g_dde_refined: int

    @property
    def equal(self) -> bool:
        return self.g_ode == self.g_dde


def check_determining_invariance(
    problem: PeriodicLinearProblem,
    nodes: int = 64,
    tol: Tolerances = DEFAULT,
    monodromy: MonodromyODE | None = None,
) -> DeterminingInvariance:
    """Geometric multiplicity of multiplier 1, uncontrolled vs controlled
    at full feedback strength.

    The uncontrolled value is the Schur rule of ``cluster_multiplicity`` on
    the n x n ODE monodromy.  The controlled value is dim ker(M - I) of the
    delay monodromy M, N = n * nodes rows, from the n x n Schur complement
    S = A22 - A21 A11^-1 A12 of M - I split before the n columns of phi(0):
    one LU of A11, n solves and the singular values of S, with the rank
    rule ``svd_rank(., n, rank_factor, tol_one)``.  No kernel vector is
    lost, because a periodic solution with phi(0) = 0 is zero.  S is the
    ODE's Y(T) - I up to the discretization, so it is held to the radius
    tol_one that g_ode's Schur rule counts within.  Two guard rails keep S
    honest: an A11 whose distance to singular, 1 / ||A11^-1||_1 estimated
    by LAPACK ``gecon``, is below a fixed floor raises NumericalError, and
    a singular value of S between 10 tol_one and a fixed multiple of it
    raises InconclusiveMultiplicityError.

    The controlled value is recomputed on a doubled grid; if refinement
    changes it the discretization has not converged and the check raises
    rather than certify a wrong dimension.  ``monodromy`` is the problem's
    ODE monodromy when the caller has already built it (it must belong to
    ``problem``); otherwise one is built here.
    """
    mono = ode_monodromy(problem) if monodromy is None else monodromy
    if mono.problem is not problem:
        raise InputError("the monodromy was built for a different problem")
    g_ode = cluster_multiplicity(mono.matrix, 1.0 + 0.0j, tol.tol_one, tol.rank_factor)[1]
    # built one at a time, each only once the one before has its multiplicity
    g_dde, g_refined = (
        _unit_geometric(dde_monodromy(problem, nodes=m, tol=tol).matrix, problem.dimension, tol)
        for m in (nodes, 2 * nodes)
    )
    if g_dde != g_refined:
        raise InconclusiveMultiplicityError(
            f"geometric multiplicity at 1 changed from {g_dde} to {g_refined} "
            f"under grid refinement ({nodes} -> {2 * nodes} nodes)"
        )
    return DeterminingInvariance(g_ode, g_dde, g_refined)


# ---------------------------------------------------------------------------
# the periodic exclusion rules

# times of one period, both ends included, at which the gain's commutator
# with the periodic factor P(t) is measured
_COMMUTING_SAMPLES = 33


def periodic_verdicts(
    monodromy: MonodromyODE, tol: Tolerances = DEFAULT
) -> tuple[Verdict, ...]:
    """The three exclusion rules for the linearization behind the ODE
    ``monodromy`` (see :func:`ode_monodromy`).

    Rules, in order: the odd-number rule (no multiplier at 1 plus an odd
    count of real multipliers above 1); the commuting rule with real gain
    spectrum, where an odd-dimensional unstable eigenspace waives the
    spectral condition; and the commuting rule with no spectral condition
    at all.  All three read this one monodromy, its problem's gain and one
    Floquet decomposition.
    """
    rep = multipliers(monodromy, tol)
    gain = monodromy.problem.feedback.gain
    period = monodromy.period

    reals = rep._real_beyond_one(tol)
    real_above = sum(e.algebraic for e in reals)
    top = max(reals, key=lambda e: e.value.real, default=None)
    h_nondeg = Hypothesis(
        "no multiplier at 1",
        rep.unit_algebraic == 0,
        f"multiplier-1 cluster: algebraic {rep.unit_algebraic}, "
        f"geometric {rep.unit_geometric}",
        value=float(rep.unit_algebraic),
    )
    h_odd = Hypothesis(
        "odd count of real multipliers above 1",
        real_above % 2 == 1,
        f"{real_above} real multiplier(s) beyond 1",
        value=float(real_above),
    )
    v_odd = Verdict.from_hypotheses("odd-number", (h_nondeg, h_odd), lambda: top.value)

    h_unstable = Hypothesis(
        "a real multiplier above 1 exists",
        real_above >= 1,
        f"{real_above} real multiplier(s) beyond 1",
        value=float(real_above),
    )

    decomp = None
    exponent = None if top is None else float(np.log(top.value.real) / period)
    try:
        decomp = floquet_decompose(monodromy, tol)
        # A generator that is zero to the matrix logarithm's accuracy
        # (||B|| T <= tol_log max(1, ||Y(T)||)) commutes with every gain, so
        # its commutator is then 0.0 rather than a commutator of rounding
        # noise divided by its own norm.
        scale = max(1.0, spectral_norm(monodromy.matrix))
        negligible = spectral_norm(decomp.generator) * period <= tol.tol_log * scale
        res_b = 0.0 if negligible else relative_commutator(gain, decomp.generator)
        ps = decomp._periodic_factors(np.linspace(0.0, period, _COMMUTING_SAMPLES))
        res_p = max(relative_commutator(gain, p) for p in ps)
    except NumericalError:
        detail = "Floquet decomposition unavailable"
        h_comm_b = Hypothesis("gain commutes with the Floquet generator", False, detail)
        h_comm_p = Hypothesis("gain commutes with the periodic factor", False, detail)
    else:
        if negligible:
            detail_b = (
                "Floquet generator is zero to the matrix logarithm's accuracy, "
                "and a zero generator commutes with every gain"
            )
        else:
            detail_b = f"relative commutator norm {res_b:.3e}"
        h_comm_b = Hypothesis(
            "gain commutes with the Floquet generator",
            res_b <= tol.tol_comm,
            detail_b,
            value=res_b,
            tolerance=tol.tol_comm,
        )
        h_comm_p = Hypothesis(
            "gain commutes with the periodic factor",
            res_p <= tol.tol_comm,
            f"largest relative commutator norm {res_p:.3e}",
            value=res_p,
            tolerance=tol.tol_comm,
        )

    # common eigenpairs of the generator at the unstable exponent and the
    # gain, one per dimension of that eigenspace
    pairs = ()
    if decomp is not None and exponent is not None:
        try:
            pairs = common_eigenpair(decomp.generator, gain, exponent, tol)
        except InputError:  # no eigenspace resolved at the computed exponent
            pass

    h_real = real_spectrum_hypothesis(gain, tol)
    worst_im, spec_ok = h_real.value, h_real.passed
    space_dim = len(pairs)
    odd_space = not spec_ok and space_dim % 2 == 1
    spec_detail = h_real.detail
    if odd_space:
        spec_detail = (
            f"gain spectrum is not real (|Im| up to {worst_im:.3e}), but the "
            f"unstable eigenspace has odd dimension {space_dim}, which forces "
            "a real invariant gain eigenvalue"
        )
    h_spec = Hypothesis(
        "gain spectrum real, or unstable eigenspace odd-dimensional",
        spec_ok or odd_space,
        spec_detail,
        value=worst_im,
        tolerance=h_real.tolerance,
    )

    def witness(real: bool) -> complex | None:
        m = reduced_root(pairs, exponent, period, real, tol)
        return None if m is None else complex(np.exp(m * period))

    hyps_any = (h_unstable, h_comm_b, h_comm_p)
    v_real = Verdict.from_hypotheses(
        "commuting-real-spectrum", (*hyps_any, h_spec), lambda: witness(real=True)
    )
    v_any = Verdict.from_hypotheses("commuting-gain", hyps_any, lambda: witness(real=False))
    return (v_odd, v_real, v_any)
