"""Method-of-steps time integration for delayed-feedback systems.

The controlled equation is

    x'(t) = f(x(t)) + K [x(t) - x(t - T)],

integrated with classical RK4 on a uniform grid whose step divides the
delay exactly, so the delayed argument at grid points lands on a stored
grid point and at stage midpoints on a stored interval midpoint.  The
delay term then carries no interpolation error beyond the cubic dense
output, which keeps time-domain growth rates comparable with spectral
predictions.

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
import scipy.interpolate

from .errors import InputError
from .expressions import DomainError
from .fields import LinearField
from .problems import DelayFeedback, positive_finite, real_array

__all__ = [
    "HistorySegment",
    "Trajectory",
    "integrate",
    "growth_rate",
    "perturbed_history",
]


class HistorySegment:
    """An initial function on [-T, 0] with cubic interpolation.

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
        self._spline = scipy.interpolate.CubicSpline(grid, values, axis=0)

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
        if np.any(s < self.grid[0] - slack) or np.any(s > slack):
            raise InputError("history evaluated outside [-delay, 0]")
        return self._spline(np.clip(s, self.grid[0], 0.0))

    @classmethod
    def from_constant(cls, point: np.ndarray, delay: float) -> "HistorySegment":
        point = np.asarray(point, dtype=float).reshape(-1)
        grid = np.linspace(-delay, 0.0, 8)
        return cls(grid, np.tile(point, (grid.size, 1)))

    @classmethod
    def from_callable(
        cls, fun: Callable[[float], np.ndarray], delay: float, samples: int = 129
    ) -> "HistorySegment":
        grid = np.linspace(-delay, 0.0, samples)
        values = np.array([np.asarray(fun(s), dtype=float).reshape(-1) for s in grid])
        return cls(grid, values)


_HISTORY_SAMPLES = 33
# most RK4 steps one run may take, per delay or in all: the state and
# derivative arrays are allocated up front, 16 n bytes per step
_MAX_STEPS = 10**6


def perturbed_history(
    point: np.ndarray,
    delay: float,
    amplitude: float,
    seed: Optional[int] = None,
) -> HistorySegment:
    """Uniform random history of the given amplitude around a point, drawn
    at ``_HISTORY_SAMPLES`` equispaced times."""
    point = real_array(point, "point").reshape(-1)
    delay = positive_finite(delay, "delay")
    amplitude = positive_finite(amplitude, "amplitude")
    if math.isinf(2.0 * amplitude):  # the width of the uniform range
        raise InputError(f"amplitude {amplitude:g} is too large for a uniform draw")
    if seed is not None and seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
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
        if np.any(t < self.times[0]) or np.any(t > self.times[-1] * (1 + 1e-12) + 1e-300):
            raise InputError("sample time outside the stored trajectory")
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
    steps are one doubling scan, and a field whose step maps overflow
    falls back to the stage loop.  Every other field runs the stage loop
    below, four field calls per step.
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

    xs = np.empty((steps + 1, n))
    fs = np.empty((steps + 1, n))
    xs[0] = history.final
    scale = max(1.0, float(np.max(np.abs(history.values))))
    limit = blow_up * scale
    if isinstance(field, LinearField):
        if field.matrix.shape != gain.shape:
            raise InputError("field dimension does not match the gain")
        maps = _step_maps(field.matrix, gain, h)
        if np.all(np.isfinite(maps)):
            last, blown_at = _affine_march(field.matrix, gain, history, maps, h, m, xs, fs, limit)
            times = np.arange(last + 1) * h
            return Trajectory(times, xs[: last + 1], fs[: last + 1], blown_at)
    blown_at: Optional[float] = None

    def delayed_point(i: int) -> np.ndarray:
        # grid-aligned delayed value: index i may reach into the history
        if i >= 0:
            return xs[i]
        return history(i * h)

    fs[0] = rhs(xs[0], delayed_point(-m))
    last = steps
    for j in range(steps):
        t = j * h
        jb = j - m  # index of t - T on the grid
        k1 = fs[j]
        if jb + 1 <= 0:
            d_mid = history((jb + 0.5) * h)
        else:
            # both endpoints of the delayed interval are already computed
            d_mid = 0.5 * (xs[jb] + xs[jb + 1]) + (h / 8.0) * (fs[jb] - fs[jb + 1])
        d_end = delayed_point(jb + 1)
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
    double range come back non-finite, without a warning.
    """
    n = a.shape[0]
    x, d0, dm, d1 = (np.eye(n, 4 * n, k * n) for k in range(4))

    def rhs(y: np.ndarray, yd: np.ndarray) -> np.ndarray:
        return a @ y + gain @ (y - yd)

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(x, d0)
        k2 = rhs(x + 0.5 * h * k1, dm)
        k3 = rhs(x + 0.5 * h * k2, dm)
        k4 = rhs(x + h * k3, d1)
        return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _affine_march(
    a: np.ndarray,
    gain: np.ndarray,
    history: HistorySegment,
    maps: np.ndarray,
    h: float,
    m: int,
    xs: np.ndarray,
    fs: np.ndarray,
    limit: float,
) -> tuple[int, Optional[float]]:
    """The stage loop's RK4 steps for f(x) = A x, one delay interval at a time.

    Fills ``xs`` and ``fs`` (xs[0] given) and returns ``(last, blown_at)``
    as the stage loop sets them.  Per interval, the delayed nodes,
    midpoints and ends of all its steps are gathered at once: from batched
    history calls on the first interval, and after it from the previous
    interval's ``xs`` and ``fs`` through the stage loop's Hermite midpoint.
    The step offsets c are then one matmul, and the steps y+ = y + D y + c
    are one Hillis-Steele prefix scan (Hillis & Steele, CACM 29, 1986):
    with the interval's start state folded into the first offset, level l
    adds to each partial sum the one 2^l steps before it, carried over
    those steps by E_l = (I + D)^(2^l) - I.  That is ceil(log2 m) batched
    matmuls per interval instead of m small ones.  Neither I + D nor its
    powers are stored, as their rounding would bias every step the same
    way.  The levels are built while they stay finite; where a higher
    power overflows, each interval is scanned in chunks the finite levels
    cover, so every field with finite step maps keeps this path.  The
    blow-up test runs once per interval and locates the first offending
    step; the scan only carries values forward, so the steps before it
    are untouched by it.
    """
    n = a.shape[0]
    steps = len(xs) - 1
    d = maps[:, :n]
    offsets = maps[:, n:].T  # rows act on (d0, dm, d1) side by side
    levels = [d.T]  # E_l transposed, as the scan multiplies rows
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(levels) < m:
            e = levels[-1]
            nxt = 2.0 * e + e @ e
            if not np.all(np.isfinite(nxt)):
                break
            levels.append(nxt)
    chunk = 2 ** len(levels)  # the finite levels scan this many steps

    def delayed_nodes(lo: int, hi: int) -> np.ndarray:
        # the stage loop's delayed_point(i) for lo <= i < hi
        if lo >= 0:
            return xs[lo:hi]
        past = history(np.arange(lo, min(hi, 0)) * h)
        return np.concatenate([past, xs[: max(hi, 0)]])

    for j0 in range(0, steps, m):
        j1 = min(j0 + m, steps)
        nodes = delayed_nodes(j0 - m, j1 - m + 1)  # for grid points j0..j1
        if j0 == 0:
            mids = history((np.arange(j1) - m + 0.5) * h)
        else:
            # fs[j0], filled with the previous interval, feeds the last midpoint
            lo, hi = j0 - m, j1 - m
            mids = 0.5 * (xs[lo:hi] + xs[lo + 1 : hi + 1]) + (h / 8.0) * (
                fs[lo:hi] - fs[lo + 1 : hi + 1]
            )
        first = 0 if j0 == 0 else j0 + 1  # first grid point whose fs is unset
        with np.errstate(over="ignore", invalid="ignore"):
            new = xs[j0 + 1 : j1 + 1]  # a view: the scan runs in place
            new[:] = np.concatenate([nodes[:-1], mids, nodes[1:]], axis=1) @ offsets
            for k0 in range(0, j1 - j0, chunk):
                u = new[k0 : k0 + chunk]
                y = xs[j0 + k0]
                u[0] += y + d @ y
                for l, e in enumerate(levels):
                    s = 2**l
                    if s >= len(u):
                        break
                    u[s:] = u[s:] + u[:-s] + u[:-s] @ e
            seg = xs[first : j1 + 1]
            fs[first : j1 + 1] = seg @ a.T + (seg - nodes[first - j0 :]) @ gain.T
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
