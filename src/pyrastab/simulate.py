"""Method-of-steps time integration for delayed-feedback systems.

The controlled equation is

    x'(t) = f(x(t)) + K [x(t) - x(t - T)],

integrated with classical RK4 on a uniform grid whose step divides the
delay exactly, so the delayed argument at grid points lands on a stored
grid point and at stage midpoints on a stored interval midpoint.  The
delay term then carries no interpolation error beyond the cubic dense
output, which keeps time-domain growth rates comparable with spectral
predictions.  Before t = 0 the dense output is the history's not-a-knot
spline in the same Hermite form, read once per run on those points.

A `LinearField` is marched one delay interval at a time (the method of
steps; Bellen & Zennaro, *Numerical Methods for Delay Differential
Equations*, OUP 2003): each RK4 step is then affine in the state and the
three delayed values it reads, so the step maps are built once, an
interval's delayed inputs are one matmul, and its steps are one
log-depth prefix scan.  Every other field runs the generic stage loop,
which calls the field four times per step.  Both compute the same RK4
steps and agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import InputError
from .expressions import DomainError
from .fields import LinearField
from .problems import DelayFeedback, integer, positive_finite, real_array

__all__ = [
    "HistorySegment",
    "Trajectory",
    "integrate",
    "growth_rate",
    "perturbed_history",
]


class HistorySegment:
    """An initial function on [-T, 0]: the not-a-knot cubic spline through
    its samples, stored as knot values and slopes, evaluated by `Trajectory.sample`.

    The segment is the state of the delay equation: integration starts
    from a whole function, not a point.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        grid = real_array(grid, "history grid")
        values = real_array(values, "history values")
        if grid.ndim != 1 or grid.size < 4:
            raise InputError("history grid needs at least four points")
        if values.ndim != 2 or values.shape[0] != grid.size:
            raise InputError("history values must be (len(grid), dimension)")
        if not np.all(np.diff(grid) > 0.0):
            raise InputError("history grid must be strictly increasing")
        if grid[-1] != 0.0:
            raise InputError("history grid must end at 0")
        if grid[0] >= 0.0:
            raise InputError("history grid must start at -delay < 0")
        self.grid = grid
        self.values = values
        self._cubic = Trajectory(grid, values, _not_a_knot_slopes(grid, values))

    @property
    def delay(self) -> float:
        return -float(self.grid[0])

    @property
    def dimension(self) -> int:
        return int(self.values.shape[1])

    @property
    def final(self) -> np.ndarray:
        """The state at time 0, where integration starts."""
        return self.values[-1].copy()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        slack = 1e-9 * self.delay
        if not np.all((s >= self.grid[0] - slack) & (s <= slack)):
            raise InputError("history evaluated outside [-delay, 0]")
        return self._cubic.sample(np.clip(s, self.grid[0], 0.0))

    @classmethod
    def from_constant(cls, point: np.ndarray, delay: float) -> "HistorySegment":
        point = np.asarray(point, dtype=float).reshape(-1)
        grid = np.linspace(-delay, 0.0, 8)
        return cls(grid, np.tile(point, (grid.size, 1)))

    @classmethod
    def from_callable(
        cls, fun: Callable[[float], np.ndarray], delay: float, samples: int = 129
    ) -> "HistorySegment":
        """``fun`` at ``samples`` (an integer, at least 4) times of [-delay, 0]."""
        grid = np.linspace(-delay, 0.0, integer(samples, "history samples", 4))
        values = np.array([np.asarray(fun(s), dtype=float).reshape(-1) for s in grid])
        return cls(grid, values)


def _not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot spline through (x, y), len(x) >= 4 (de Boor,
    *A Practical Guide to Splines*, ch. IV): scipy's `CubicSpline` rows."""
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    w0, w1 = x[2] - x[0], x[-1] - x[-3]
    ab = np.array([  # upper, main and lower diagonals
        np.r_[0.0, w0, dx[:-1]],
        np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
        np.r_[dx[1:], w1, 0.0],
    ])
    b = np.empty_like(y)
    b[1:-1] = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    b[0] = ((dx[0] + 2 * w0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * w1 + dx[-1]) * dx[-2] * slope[-1]) / w1
    return scipy.linalg.solve_banded((1, 1), ab, b, check_finite=False)


_HISTORY_SAMPLES = 33
# most RK4 steps one run may take, per delay or in all: the arrays are
# allocated up front, 16 n bytes per step of the run and of the delay
_MAX_STEPS = 10**6


def perturbed_history(
    point: np.ndarray,
    delay: float,
    amplitude: float,
    seed: Optional[int] = None,
) -> HistorySegment:
    """Uniform random history of the given amplitude around a point, drawn
    at ``_HISTORY_SAMPLES`` equispaced times; ``seed`` is None or an integer
    of at least 0."""
    point = real_array(point, "point").reshape(-1)
    delay = positive_finite(delay, "delay")
    amplitude = positive_finite(amplitude, "amplitude")
    if math.isinf(2.0 * amplitude):  # the width of the uniform range
        raise InputError(f"amplitude {amplitude:g} is too large for a uniform draw")
    if seed is not None:
        seed = integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    grid = np.linspace(-delay, 0.0, _HISTORY_SAMPLES)
    noise = rng.uniform(-amplitude, amplitude, size=(_HISTORY_SAMPLES, point.size))
    return HistorySegment(grid, point[None, :] + noise)


@dataclass(frozen=True)
class Trajectory:
    """Dense output of a method-of-steps run.

    `derivs` holds the right-hand side at each grid point; together with
    `states` it defines the cubic Hermite dense output used both for the
    delayed lookups during integration and for `sample`.  `blown_at` is
    the first time a state left the finite range, or None.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    blown_at: Optional[float] = None

    def __len__(self) -> int:
        return int(self.times.size)

    def sample(self, t) -> np.ndarray:
        """Cubic Hermite evaluation at arbitrary times inside the run."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= self.times[0]) & (t <= self.times[-1] * (1 + 1e-12) + 1e-300)):
            raise InputError("sample time outside the stored trajectory")
        if len(self) == 1:  # a run stopped at its first step: no interval to interpolate
            out = np.repeat(self.states, len(t), axis=0)
            return out[0] if scalar else out
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self) - 2)
        h = self.times[idx + 1] - self.times[idx]
        u = np.clip((t - self.times[idx]) / h, 0.0, 1.0)[:, None]
        x0 = self.states[idx]
        x1 = self.states[idx + 1]
        d0 = self.derivs[idx] * h[:, None]
        d1 = self.derivs[idx + 1] * h[:, None]
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        out = h00 * x0 + h10 * d0 + h01 * x1 + h11 * d1
        return out[0] if scalar else out

    def deviations(self, reference=None) -> np.ndarray:
        """Euclidean distance from a reference point at each stored time."""
        if reference is None:
            reference = np.zeros(self.states.shape[1])
        reference = np.asarray(reference, dtype=float).reshape(-1)
        return np.linalg.norm(self.states - reference[None, :], axis=1)


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is reported through blown_at
def integrate(
    field: Callable[[np.ndarray], np.ndarray],
    feedback: DelayFeedback,
    history: HistorySegment,
    t_end: float,
    dt: Optional[float] = None,
    blow_up: float = 1e9,
) -> Trajectory:
    """Integrate x' = f(x) + K[x(t) - x(t-T)] from a history segment.

    ``field`` is the autonomous right-hand side, called as ``field(x)``;
    time enters only through the delayed state.  The step is rounded down so that it divides the delay: delayed grid
    values are prior grid values, delayed stage midpoints are dense-output
    midpoints of prior intervals.  A run needing more than ``_MAX_STEPS``
    steps is refused with `InputError` before anything is allocated.  A
    non-finite or oversized state stops the run and is reported through
    `blown_at` rather than raising: a blow-up is a legitimate (unstable)
    outcome.  So is a step on which the field raises `DomainError`, which
    is dropped.

    A `LinearField` takes the affine interval march (`_affine_march`),
    which calls no field: its step maps are built once, each interval's
    steps are one doubling scan, and a field whose step maps or doubling
    levels overflow falls back to the stage loop.  Every other field runs
    the stage loop below, four field calls per step.
    """
    delay = feedback.delay
    gain = feedback.gain
    n = history.dimension
    if gain.shape[0] != n:
        raise InputError("history dimension does not match the gain")
    if abs(history.delay - delay) > 1e-9 * delay:
        raise InputError("history covers a different delay than the feedback")
    t_end = positive_finite(t_end, "t_end")
    if dt is None:
        dt = delay / 64.0
    if not 0.0 < dt <= delay:
        raise InputError("dt must lie in (0, delay]")
    # clamped first, so that an overflowing ratio neither reaches ceil nor
    # a step count beyond the cap reaches an allocation
    m = math.ceil(min(delay / dt, _MAX_STEPS + 1) - 1e-12)
    h = delay / m
    steps = math.ceil(min(t_end / h, _MAX_STEPS + 1) - 1e-12)
    if max(m, steps) > _MAX_STEPS:
        raise InputError(
            f"dt = {dt:g} with delay {delay:g} and t_end = {t_end:g} needs more than "
            f"{_MAX_STEPS} steps"
        )

    def rhs(x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        return np.asarray(field(x), dtype=float) + gain @ (x - xd)

    # nodes[i] is x((i - m) h): m history values, then the run's states xs
    nodes = np.empty((m + steps + 1, n))
    nodes[:m] = history(np.arange(-m, 0) * h)
    past_mid = history((np.arange(-m, 0) + 0.5) * h)
    xs = nodes[m:]
    fs = np.empty((steps + 1, n))
    xs[0] = history.final
    scale = max(1.0, float(np.max(np.abs(history.values))))
    limit = blow_up * scale
    if isinstance(field, LinearField):
        if field.matrix.shape != gain.shape:
            raise InputError("field dimension does not match the gain")
        march = _affine_march(field.matrix, gain, nodes, past_mid, h, fs, limit)
        if march is not None:
            last, blown_at = march
            times = np.arange(last + 1) * h
            return Trajectory(times, xs[: last + 1], fs[: last + 1], blown_at)
    blown_at: Optional[float] = None
    fs[0] = rhs(xs[0], nodes[0])
    last = steps
    for j in range(steps):
        t = j * h
        jb = j - m  # index of t - T on the grid
        k1 = fs[j]
        if jb + 1 <= 0:
            d_mid = past_mid[j]
        else:
            # both endpoints of the delayed interval are already computed
            d_mid = 0.5 * (xs[jb] + xs[jb + 1]) + (h / 8.0) * (fs[jb] - fs[jb + 1])
        d_end = nodes[j + 1]
        try:
            k2 = rhs(xs[j] + 0.5 * h * k1, d_mid)
            k3 = rhs(xs[j] + 0.5 * h * k2, d_mid)
            k4 = rhs(xs[j] + h * k3, d_end)
            nxt = xs[j] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            finite = bool(np.all(np.isfinite(nxt)))
            if finite:
                fs[j + 1] = rhs(nxt, d_end)
        except DomainError:  # the step left the field's domain: drop it
            finite = False
        if not finite or np.max(np.abs(nxt)) > limit:
            blown_at = t + h
            if finite:
                xs[j + 1] = nxt
                last = j + 1
            else:
                last = j
            break
        xs[j + 1] = nxt
    times = np.arange(last + 1) * h
    return Trajectory(times, xs[: last + 1], fs[: last + 1], blown_at)


def _step_maps(a: np.ndarray, gain: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of x' = A x + K (x - xd) as a linear map, shape (n, 4n).

    The columns act on (x, d0, dm, d1), the state and the delayed node,
    midpoint and end values the step reads, and give the increment
    x+ - x = D x + E0 d0 + Em dm + E1 d1.  The stage recurrences of the
    stage loop run on the four (n, 4n) unit blocks, so I + D = R(h (A + K))
    is RK4's stability polynomial and E1 = -(h/6) K.  Maps beyond the
    double range come back non-finite, without a warning under
    ``integrate``'s error state.
    """
    n = a.shape[0]
    x, d0, dm, d1 = (np.eye(n, 4 * n, k * n) for k in range(4))

    def rhs(y: np.ndarray, yd: np.ndarray) -> np.ndarray:
        return a @ y + gain @ (y - yd)

    k1 = rhs(x, d0)
    k2 = rhs(x + 0.5 * h * k1, dm)
    k3 = rhs(x + 0.5 * h * k2, dm)
    k4 = rhs(x + h * k3, d1)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _affine_march(
    a: np.ndarray,
    gain: np.ndarray,
    nodes: np.ndarray,
    past_mid: np.ndarray,
    h: float,
    fs: np.ndarray,
    limit: float,
) -> Optional[tuple[int, Optional[float]]]:
    """The stage loop's RK4 steps for f(x) = A x, one delay interval at a time.

    Fills xs = ``nodes[m:]`` and ``fs`` (xs[0] given), m = len(past_mid), and
    returns ``(last, blown_at)`` as the stage loop sets them.  Per interval,
    the delayed nodes and ends of all its steps are one slice of ``nodes``,
    and its midpoints are ``past_mid`` on the first interval, after it the
    previous interval's xs and ``fs`` through the stage loop's Hermite midpoint.
    The step offsets c are then one matmul, and the steps y+ = y + D y + c
    are one Hillis-Steele prefix scan (Hillis & Steele, CACM 29, 1986):
    with the interval's start state folded into the first offset, level l
    adds to each partial sum the one 2^l steps before it, carried over
    those steps by E_l = (I + D)^(2^l) - I.  That is ceil(log2 m) batched
    matmuls per interval instead of m small ones.  Neither I + D nor its
    powers are stored, as their rounding would bias every step the same
    way.  The blow-up test runs once per interval and locates the first
    offending step; the scan only carries values forward, so the steps
    before it are untouched by it.

    Returns None, with nothing written, when the step maps
    (``_step_maps``) or a doubling level that an interval of m steps needs
    overflow; the caller then runs the stage loop.  At m = 64 a level
    overflows only when one step multiplies the state by more than about
    4e9, and such a march passes the blow-up limit in its first step
    unless its state is exactly zero.
    """
    n = a.shape[0]
    m = len(past_mid)
    xs = nodes[m:]
    steps = len(xs) - 1
    maps = _step_maps(a, gain, h)
    d = maps[:, :n]
    offsets = maps[:, n:].T  # rows act on (d0, dm, d1) side by side
    levels = [d.T]  # E_l transposed, as the scan multiplies rows
    while 2 ** len(levels) < m and np.all(np.isfinite(levels[-1])):
        e = levels[-1]
        levels.append(2.0 * e + e @ e)
    if not (np.all(np.isfinite(maps)) and np.all(np.isfinite(levels[-1]))):
        return None

    for j0 in range(0, steps, m):
        j1 = min(j0 + m, steps)
        delayed = nodes[j0 : j1 + 1]  # for grid points j0..j1
        if j0 == 0:
            mids = past_mid[:j1]
        else:
            # fs[j0], filled with the previous interval, feeds the last midpoint
            lo, hi = j0 - m, j1 - m
            mids = 0.5 * (xs[lo:hi] + xs[lo + 1 : hi + 1]) + (h / 8.0) * (
                fs[lo:hi] - fs[lo + 1 : hi + 1]
            )
        first = 0 if j0 == 0 else j0 + 1  # first grid point whose fs is unset
        new = xs[j0 + 1 : j1 + 1]  # a view: the scan runs in place
        new[:] = np.concatenate([delayed[:-1], mids, delayed[1:]], axis=1) @ offsets
        new[0] += xs[j0] + d @ xs[j0]
        for l, e in enumerate(levels):
            s = 2**l
            if s >= len(new):
                break
            new[s:] = new[s:] + new[:-s] + new[:-s] @ e
        seg = xs[first : j1 + 1]
        fs[first : j1 + 1] = seg @ a.T + (seg - delayed[first - j0 :]) @ gain.T
        finite = np.isfinite(new).all(axis=1)
        bad = ~finite | (np.abs(new) > limit).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            j = j0 + i  # the offending step
            return (j + 1 if finite[i] else j), j * h + h
    return steps, None


def growth_rate(
    trajectory: Trajectory,
    window: float,
    reference=None,
) -> float:
    """Least-squares slope of log distance-from-reference over the tail.

    The sign classifies stability; a trajectory that converged below
    floating-point resolution is reported as -inf (strongly stable).  A
    tail with fewer than two samples has no slope and raises `InputError`.
    """
    if not window > 0.0:
        raise InputError("window must be positive")
    span = trajectory.times[-1] - trajectory.times[0]
    if span <= 2.0 * window:
        raise InputError("trajectory must be longer than twice the window")
    d = trajectory.deviations(reference)
    mask = trajectory.times >= trajectory.times[-1] - window
    if np.count_nonzero(mask) < 2:
        raise InputError("the window holds fewer than two samples")
    tail = d[mask]
    if np.max(tail) < 1e-280:
        return float("-inf")
    safe = np.clip(tail, 1e-300, None)
    slope = np.polyfit(trajectory.times[mask], np.log(safe), 1)[0]
    return float(slope)
