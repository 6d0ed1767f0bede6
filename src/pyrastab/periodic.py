"""Floquet analysis of periodic linear systems with period-matched delay.

Two monodromy operators live here.  The ordinary one, Y(T) of
x' = A(t) x, comes from fixed-step RK4 with a Richardson error estimate.
The delay one propagates a history segment on [-T, 0] through one period
of x' = A(t) x + alpha K [x(t) - x(t-T)] and is discretized on a
Chebyshev-Lobatto grid in two independent ways -- a variation-of-constants
integral form and direct time stepping of the interpolated history basis
-- which must agree; their disagreement is reported and fenced by a
tolerance, so a coarse grid fails loudly instead of lying.

All of them march with one RK4 routine, ``_rk4``.  The equations are
linear, so every RK4 step is an affine map Y -> Y + D Y + Q.  The steps
are taken in blocks cut to a fixed element budget at n * n elements per
step, or 2 n * n for a sourced march, so at n = 2 a source-free march of
16k steps is one block and a sourced one of 8k steps is one block.  Per
block the increments D are built from the batched coefficient samples
with a few array products, and the offsets Q of the stepped form's
delayed source kron(ell(t - T), -alpha K) are kept as two gain-free
(n, n) factors per step, the gain applied once per segment of steps,
without materialising the source.  The interpolation rows ell come
unnormalised, with those factors, in chunks of steps cut to the same
budget on the rows' width: each row's divisor divides that step's (n, n)
factors instead of its M terms.  The block's maps are then composed in
increment form by one two-level work-efficient scan, a prefix scan
without a source and a suffix scan segmented at the kept indices with
one, rather than applied step by step, and snapshots are stored only at
the grid indices the caller reads, so memory stays bounded however fine
the grid.  The fundamental solution used by the integral form and the
history basis of the stepped form are two separate marches over the same
grid, each with its own step maps and composites, never one stacked
march, so the cross-check compares two constructions that share only
their sampled coefficients.  Their gap is measured by an O(N^2) upper
bound on the relative spectral-norm difference (``relative_gap_bound``),
never by an SVD.

Every march grid is linspace(0, T, steps + 1) with its step midpoints, a
uniform grid of 2 steps intervals, except that the delay monodromy adds
its quadrature marks.  ``_stage_coefficients`` alone samples the
coefficient a march reads: given ``steps``, a coefficient with its own
uniform-grid evaluation (a ``TrigCoefficient``, by one inverse FFT) is
sampled on that grid at once, and only the marks that replaced or sit
between base points, and the midpoints beside them, go through its
``batch``; any other coefficient is sampled through ``coefficient_on`` at
every time.

The exclusion rules use the common-eigenvector reduction that
``equilibria`` defines for both settings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .chebyshev import (
    barycentric_terms,
    barycentric_weights,
    cumulative_matrix,
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
from .linalg import SchurForm, cluster_multiplicity, relative_gap_bound, spectral_norm
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

# Elements of a march's per-step arrays in one block or chunk.  Blocks are
# cut to _BUDGET // (n * n) steps without a source and _BUDGET // (2 n * n)
# with one, whose block-long arrays are the increments, their composites
# and C_{k+1}; its interpolation rows (M per step) and source factors are
# evaluated in chunks of _BUDGET // M steps.  This bounds every temporary
# independently of the grid; at n = 2 a source-free march of 16k steps is
# one block.
_BUDGET = 2**16

# Times per call of a coefficient's batch evaluation, which bounds its own
# temporaries (a ``TrigCoefficient``'s phase table) in the same way.
_SAMPLE_BATCH = 256

_Stages = tuple[np.ndarray, np.ndarray]

# A delayed source R(t) = kron(ell(t), G): ``terms`` maps S times to the
# unnormalised (S, M) rows and their (S,) divisors, ell = rows / divisor
# (see ``chebyshev.barycentric_terms``), and G is (n, n); in the node-major
# layout block j of R(t) is ell(t)[j] * G.
_Terms = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
_Source = tuple[_Terms, np.ndarray]


def _stage_coefficients(
    problem: PeriodicLinearProblem, times: np.ndarray, steps: int | None = None
) -> _Stages:
    """A at the grid points and at the step midpoints of ``times``, every
    coefficient an RK4 march over that grid reads; ``problem.coefficient_on``
    is called on _SAMPLE_BATCH times at a time.

    ``steps``, when given, says that ``times`` holds the base points
    linspace(0, T, steps + 1), T = problem.period, perhaps with marks added.
    A coefficient with its own uniform-grid evaluation ``on_grid`` (a
    ``TrigCoefficient``) is then sampled at j T / (2 steps), j = 0..2 steps,
    at once: the base points at even j and their midpoints at odd j.  A grid
    entry that is bitwise its base point reads its value there, and so does
    the midpoint of a step between two consecutive base points.  Only the
    other times go through ``coefficient_on``: marks that replaced or sit
    between base points, and the midpoints beside them.
    """

    def sampled(x: np.ndarray) -> np.ndarray:
        blocks = range(0, len(x), _SAMPLE_BATCH)
        return np.concatenate([problem.coefficient_on(x[lo : lo + _SAMPLE_BATCH])
                               for lo in blocks])

    mids = times[:-1] + 0.5 * np.diff(times)
    on_grid = getattr(problem.coefficient, "on_grid", None)
    if steps is None or on_grid is None:
        return sampled(times), sampled(mids)
    uniform = np.asarray(on_grid(2 * steps), dtype=float)

    def read(x: np.ndarray, hit: np.ndarray, j: np.ndarray) -> np.ndarray:
        out = np.empty((len(x),) + uniform.shape[1:])
        out[hit] = uniform[j[hit]]
        if not np.all(hit):
            out[~hit] = sampled(x[~hit])
        return out

    base = np.linspace(0.0, problem.period, steps + 1)
    k = np.minimum(np.searchsorted(base, times), steps)
    on = base[k] == times
    between = on[:-1] & on[1:] & (np.diff(k) == 1)
    return read(times, on, 2 * k), read(mids, between, 2 * k[:-1] + 1)


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


def _scan(x: np.ndarray, restart: np.ndarray | None, flip: bool) -> np.ndarray:
    """Inclusive scan of increments x (L, n, n) in array order, starting
    afresh at every index where ``restart`` is set.

    The accumulated map a joined with the next entry b is a + b + b a, or
    a + b + a b if ``flip`` (a scan run backwards in time).  Two levels, a
    work-efficient scan (Blelloch, CMU-CS-90-190, 1990): the entries are
    cut into about sqrt(L) runs, each run is composed sequentially with all
    runs in step, the run totals are scanned by the same routine, and
    every entry is joined to the total before its run; about two products
    per entry.  The runs are stored position-major, so each sequential
    step reads and writes contiguous (runs, n, n) slabs.  A zero increment
    is exactly the identity map, so padding to whole runs, and joining an
    entry past a restart to zero, are exact.
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
    if restart is not None:
        flags = np.zeros(runs * run, dtype=bool)
        flags[:size] = restart
        restart = flags.reshape(runs, run).T
        fresh_at = restart.any(axis=1).tolist()
    for j in range(1, run):
        prev, cur = c[j - 1], c[j]
        if restart is not None and fresh_at[j]:
            prev = np.where(restart[j, :, None, None], 0.0, prev)
        joined = prev @ cur if flip else cur @ prev
        cur += prev
        cur += joined
    if runs > 1:
        totals = _scan(c[-1], None if restart is None else restart.any(axis=0), flip)
        lead, body = totals[:-1], c[:, 1:]
        if restart is not None:
            fresh = np.logical_or.accumulate(restart[:, 1:], axis=0)
            lead = np.where(fresh[..., None, None], 0.0, lead)
        joined = lead @ body if flip else body @ lead
        body += lead
        body += joined
    return c.swapaxes(0, 1).reshape((-1,) + shape)[:size]


def _composites(
    d: np.ndarray, suffix: bool, ends: np.ndarray | None = None
) -> np.ndarray:
    """Inclusive scans of step increments d (S, n, n): entry k is the
    composite increment of steps 0..k, or of steps k..S-1 if ``suffix``.
    A suffix scan may be cut into segments by their exclusive ``ends``
    (ascending, the last one S): entry k then composes steps k to the end
    of k's segment.

    Map D1 followed by map D2 is the map D1 + D2 + D2 D1, so composites
    stay in increment form and I + D is never stored (see ``_step_maps``).
    """
    if not suffix:
        return _scan(d, None, flip=False)
    restart = None
    if ends is not None:
        restart = np.zeros(len(d), dtype=bool)
        restart[len(d) - np.asarray(ends)] = True
    return _scan(d[::-1], restart, flip=True)[::-1]


def _source_maps(h: np.ndarray, am: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Gain-free step factors (2, S, n, n) of a source R(t) = kron(rows(t),
    G): with F = [F0, Fm] and F1 = h/6 I, one RK4 step maps Y to
    Y + D[k] Y + Q[k], where block j of Q[k] is
    (rows0[k, j] F0[k] + rowsm[k, j] Fm[k] + rows1[k, j] F1[k]) G for the
    rows at the step's start, midpoint and end.

    With R0, Rm, R1 the source at those three times,
    Q = h/6 [M0 R0 + Mm Rm + R1], M0 = I + h Am + h^2/2 Am^2
    + h^3/4 A1 Am^2 and Mm = 4 I + h (Am + A1) + h^2/2 A1 Am; as every R
    is kron(ell, G), F = h/6 [M0, Mm] and G is left to the caller, which
    applies it once to a contracted offset.  Q itself is never formed.
    """
    eye = np.eye(am.shape[-1])
    h = h[:, None, None]
    am2 = am @ am
    m0 = eye + h * am + (0.5 * h * h) * am2 + (0.25 * h**3) * (a1 @ am2)
    mm = 4.0 * eye + h * (am + a1) + (0.5 * h * h) * (a1 @ am)
    return np.stack([m0, mm]) * (h / 6.0)


def _source_chunk(
    t: np.ndarray, am: np.ndarray, a1: np.ndarray, after: np.ndarray, terms: _Terms
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows and source factors of the steps through the grid points ``t``
    of a sourced march (see ``_rk4``), given A at their midpoints and ends
    and C_{k+1} at each step.

    Returns the unnormalised rows at the points and at the midpoints, the
    factors F_k + C_{k+1} F_k (2, S, n, n) and h/6 (I + C_{k+1}) (S, n, n),
    each divided by the divisor of the rows it meets: the start and end
    points' for F0 and the last factor, the midpoint's for Fm.
    """
    h = np.diff(t)
    ell, div = terms(t)
    ell_mid, div_mid = terms(t[:-1] + 0.5 * h)
    f = _source_maps(h, am, a1)
    f += after @ f
    f[0] /= div[:-1, None, None]
    f[1] /= div_mid[:, None, None]
    f_end = (h / 6.0)[:, None, None] * (np.eye(am.shape[-1]) + after)
    f_end /= div[1:, None, None]
    return ell, ell_mid, f, f_end


def _block_steps(y: np.ndarray, sourced: bool) -> int:
    """Steps per block of a march of Y (n, M n): _BUDGET over n * n
    elements per step without a source and 2 n * n with one (see
    _BUDGET).  The M interpolation rows per step do not set the block; a
    sourced march evaluates them in chunks of _BUDGET // M steps."""
    n = y.shape[0]
    return max(1, _BUDGET // (2 * n * n if sourced else n * n))


@np.errstate(over="ignore", invalid="ignore")  # a blow-up raises NumericalError below
def _rk4(
    times: np.ndarray,
    stages: _Stages,
    y0: np.ndarray,
    keep: np.ndarray | list[int],
    source: _Source | None = None,
) -> np.ndarray:
    """Classical RK4 for Y' = A(t) Y + R(t) through ``times``; returns Y at
    the grid indices ``keep``, stacked in their order.

    The equation is linear, so each step is an affine map
    Y -> Y + D Y + Q, and the march composes these maps per block instead
    of applying them one by one.  A block holds as many steps as the
    element budget _BUDGET allows for the march's per-step arrays
    (``_block_steps``).  ``stages`` holds A at the grid points and
    midpoints (see ``_stage_coefficients``); ``source`` is the pair
    (terms, G) of R(t) = kron(ell(t), G), ell the unnormalised rows that
    ``terms`` returns divided by their divisors.

    Without a source, a two-level prefix scan of the block's increments
    (``_composites``) gives the composite E_k of its first k steps, and
    every kept snapshot in the block is Y_lo + E_k Y_lo at once.  With a
    source, the block is cut into segments at its kept indices, and one
    segmented suffix scan gives C_k, the composite of steps k to the end
    of k's segment.  A segment maps Y to
    Y + C_first Y + sum_k (I + C_{k+1}) Q_k, with C_{k+1} = 0 at its last
    step.  The rows at the steps' start, midpoint and end points and the
    gain-free factors F_k + C_{k+1} F_k (see ``_source_maps``) come in
    chunks of _BUDGET // M steps that end at a segment's end, a segment
    longer than that in a chunk of its own (``_source_chunk``); each row's
    divisor divides the (n, n) factor it meets, so the (S, M) rows are
    never normalised.  Per segment the factors are contracted with the
    rows, one matrix product each, and G is applied once to the (M, n, n)
    result.  No composite is inverted and only the kept
    snapshots are stored.
    """
    kept, slot = np.unique(np.asarray(keep, dtype=np.intp) % len(times), return_inverse=True)
    out = np.empty((len(kept),) + y0.shape)
    y = np.array(y0, dtype=float)
    out[kept == 0] = y
    block = _block_steps(y, source is not None)
    for lo in range(0, len(times) - 1, block):
        hi = min(lo + block, len(times) - 1)
        here = slice(*np.searchsorted(kept, [lo, hi], side="right"))
        y = _rk4_block(times[lo : hi + 1], stages[0][lo : hi + 1], stages[1][lo:hi],
                       y, kept[here] - lo, out[here], source)
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
    source: _Source | None,
) -> np.ndarray:
    """One block of ``_rk4`` through the grid points ``t``, with A at them
    (``a``) and at their midpoints (``a_mid``): writes Y at the block's
    kept steps ``inside`` (ascending, in 1..S) to ``out`` and returns Y at
    its end.  The block's step increments and composites are locals, so
    they are freed before the next block's are built."""
    n = y.shape[0]
    d = _step_maps(np.diff(t), a[:-1], a_mid, a[1:])
    if source is None:
        e = _composites(d, suffix=False)
        out[:] = y + e[inside - 1] @ y
        return y + e[-1] @ y
    terms, g = source
    chunk = max(1, _BUDGET // (y.shape[1] // n))  # steps of M-wide rows at a time
    cuts = np.union1d(inside, len(d))
    c = _composites(d, suffix=True, ends=cuts)
    del d  # folded into c; not held while the source chunks are built
    after = np.zeros_like(c)  # C_{k+1}, zero at each segment's last step
    after[:-1] = c[1:]
    after[cuts - 1] = 0.0
    top = 0  # rows and factors are held for the steps [base, top) of the block
    for j, (s0, s1) in enumerate(zip(np.concatenate([[0], cuts[:-1]]), cuts)):
        if s1 > top:
            base = s0
            top = cuts[max(j, np.searchsorted(cuts, s0 + chunk, side="right") - 1)]
            ell, ell_mid, f, f_end = _source_chunk(
                t[base : top + 1], a_mid[base:top], a[base + 1 : top + 1],
                after[base:top], terms)
        r0, r1 = s0 - base, s1 - base
        offset = (
            ell[r0:r1].T @ f[0, r0:r1].reshape(-1, n * n)
            + ell_mid[r0:r1].T @ f[1, r0:r1].reshape(-1, n * n)
            + ell[r0 + 1 : r1 + 1].T @ f_end[r0:r1].reshape(-1, n * n)
        )  # (M, n * n): block j of the offset before G
        offset = (offset.reshape(-1, n, n) @ g).transpose(1, 0, 2)
        y = y + c[s0] @ y + offset.reshape(y.shape)
        if j < len(inside):
            out[j] = y
    return y


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
        times = self.times
        idx = int(np.searchsorted(times, r, side="right")) - 1
        idx = min(max(idx, 0), len(times) - 2)
        t0 = times[idx]
        if r - t0 <= 1e-13 * self.period:
            return self.values[idx].copy()
        times = np.array([t0, r])
        stages = _stage_coefficients(self.problem, times)
        return _rk4(times, stages, self.values[idx], [1])[0]


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
    stages = _stage_coefficients(problem, times, steps)
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
    j sits at index j * N + c).

    ``matrix`` is the integral form and ``matrix_stepped`` the stepped
    form; ``cross_residual`` is an upper bound on their relative
    spectral-norm gap ||matrix - matrix_stepped||_2 / max(1,
    ||matrix||_2), never below it (see ``linalg.relative_gap_bound``)."""

    problem: PeriodicLinearProblem
    alpha: float
    nodes: np.ndarray
    matrix: np.ndarray
    matrix_stepped: np.ndarray
    cross_residual: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _aligned_times(marks: np.ndarray, period: float, steps: int) -> np.ndarray:
    """Integration grid through [0, period] containing every mark."""
    base = np.linspace(0.0, period, steps + 1)
    grid = np.union1d(base, marks)
    keep = np.concatenate([[True], np.diff(grid) > 1e-13 * period])
    grid = grid[keep]
    if abs(grid[-1] - period) > 1e-13 * period:
        grid = np.append(grid, period)
    else:
        grid[-1] = period
    grid[0] = 0.0
    return grid


def _integer_at_least(value, what: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{what} must be at least {least}, got {value}")
    return int(value)


def dde_monodromy(
    problem: PeriodicLinearProblem,
    alpha: float = 1.0,
    nodes: int = 64,
    tol: Tolerances = DEFAULT,
    steps: int | None = None,
) -> MonodromyDDE:
    """Build the delay monodromy twice and cross-check.

    Integral form: with Y the fundamental solution of A(t) + alpha K,
    variation of constants gives, for theta in [-T, 0],

        x(T + theta) = Y(T + theta) [ phi(0)
                        - int_{-T}^{theta} Y(T + s)^{-1} alpha K phi(s) ds ],

    and phi is collocated on the Lobatto grid.  The integrand pairs the
    degree-(M-1) interpolation basis with a smooth matrix factor, so the
    quadrature runs on the doubled Lobatto grid (which contains the
    history nodes); sampling it on the coarse grid alone would alias the
    basis polynomials and stall the convergence near 1e-3.  Stepped form:
    march the full node basis through the inhomogeneous equation, reading
    the delayed term from the interpolated history.  Both land on the
    same operator up to discretization error.  Their gap, reported as
    ``cross_residual``, is an O(N^2) upper bound on the relative
    spectral-norm difference ||integral - stepped||_2 / max(1,
    ||integral||_2), N = n * nodes (see ``linalg.relative_gap_bound``),
    never below the exact ratio; a gap above tol_xcheck raises
    CrossCheckError.

    Both forms run on one time grid that contains every quadrature mark,
    as two separate RK4 marches: Y alone for the integral form, the
    history basis U for the stepped form.  They share only the samples of
    A + alpha K, taken in batches of a fixed number of times; each march
    builds its own affine step maps from them per block of steps and
    composes them with its own scans (see ``_rk4``), so no composite
    passes from one march to the other and none is inverted.  U's delayed
    source kron(ell(t - T), -alpha K) enters through its unnormalised
    interpolation rows, in chunks of steps, and two gain-free (n, n)
    factors per step that the rows' divisors divide, with -alpha K applied
    once per segment, never as a materialised (n, M n) source, and each
    march keeps its snapshots only at the marks it reads, so memory does
    not grow with the step count.
    """
    nodes = _integer_at_least(nodes, "nodes", 4)
    if not np.isfinite(alpha):
        raise InputError("alpha must be finite")
    if steps is None:
        # The stepped form integrates the interpolation basis, whose
        # higher derivatives grow polynomially with the node count; a
        # fixed step budget would let its RK4 error outrun the spectral
        # integral form and trip the cross-check on refinement.
        steps = max(2048, nodes * nodes)
    steps = _integer_at_least(steps, "steps", 16)
    n = problem.dimension
    period = problem.period
    gain = alpha * problem.feedback.gain
    theta = lobatto_nodes(nodes, -period, 0.0)
    weights = barycentric_weights(nodes)
    fine = 2 * nodes - 1
    sigma = lobatto_nodes(fine, -period, 0.0)  # sigma[2i] == theta[i]
    marks = period + sigma

    times = _aligned_times(marks, period, steps)
    # the grid point nearest each mark; the left neighbour wins ties
    mark_idx = np.clip(np.searchsorted(times, marks), 1, len(times) - 1)
    mark_idx -= np.abs(times[mark_idx - 1] - marks) <= np.abs(times[mark_idx] - marks)
    if np.any(np.abs(times[mark_idx] - marks) > 1e-10 * period):
        raise NumericalError("history node missing from the time grid")

    # the two forms march separately and share only these samples of A + alpha K
    stages = _stage_coefficients(problem, times, steps)
    stages = (stages[0] + gain, stages[1] + gain)

    # --- integral form -----------------------------------------------------
    y_fine = _rk4(times, stages, np.eye(n), mark_idx)  # Y(T + sigma_p)
    y_marks = y_fine[::2]                               # Y(T + theta_i)
    quad_fine = cumulative_matrix(sigma)
    w_fine = np.linalg.solve(y_fine, np.broadcast_to(gain, y_fine.shape))
    resample = interp_rows(theta, weights, sigma)
    # cumulative[i, j] = int_{-T}^{theta_i} Y(T + s)^{-1} alpha K ell_j(s) ds
    integrand = resample[:, :, None, None] * w_fine[:, None, :, :]
    cumulative = quad_fine[::2] @ integrand.reshape(fine, nodes * n * n)
    # big[i, :, j, :] = -Y(T + theta_i) cumulative[i, j], one batched product
    big = (y_marks[:, None] @ -cumulative.reshape(nodes, nodes, n, n)).transpose(0, 2, 1, 3)
    big[:, :, nodes - 1, :] += y_marks
    integral_form = big.reshape(nodes * n, nodes * n)

    # --- stepped form -------------------------------------------------------
    def delayed(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # -alpha K x(t - T) = kron(ell(t - T), -alpha K) @ phi, node-major
        return barycentric_terms(theta, weights, t - period)

    u0 = np.zeros((n, nodes * n))
    u0[:, (nodes - 1) * n :] = np.eye(n)  # x(0) is the history's last node
    u_marks = _rk4(times, stages, u0, mark_idx[::2], source=(delayed, -gain))
    stepped = u_marks.reshape(nodes * n, nodes * n)

    gap = relative_gap_bound(integral_form, stepped)
    if gap > tol.tol_xcheck:
        raise CrossCheckError(
            f"monodromy constructions disagree by {gap:.3e} at {nodes} nodes; "
            "refine the grid"
        )
    return MonodromyDDE(problem, alpha, theta, integral_form, stepped, float(gap))


# ---------------------------------------------------------------------------
# determining-center invariance


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

    The controlled value is recomputed on a doubled grid; if refinement
    changes it the discretization has not converged and the check raises
    rather than certify a wrong dimension.  ``monodromy`` is the problem's
    ODE monodromy when the caller has already built it (it must belong to
    ``problem``); otherwise one is built here.
    """
    mono = ode_monodromy(problem) if monodromy is None else monodromy
    if mono.problem is not problem:
        raise InputError("the monodromy was built for a different problem")
    # built one at a time, each only once the one before has its multiplicity
    controlled = (dde_monodromy(problem, nodes=m, tol=tol).matrix for m in (nodes, 2 * nodes))
    g_ode, g_dde, g_refined = (
        cluster_multiplicity(mat, 1.0 + 0.0j, tol.tol_one, tol.rank_factor)[1]
        for mat in itertools.chain([mono.matrix], controlled)
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
