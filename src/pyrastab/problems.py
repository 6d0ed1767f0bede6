"""Problem statements: a vector field or periodic coefficient, an operating
point or period, and the delayed-feedback law acting on it.

The feedback term is always K [x(t) - x(t - delay)] with a real square gain
matrix K; scaling it by a homotopy parameter alpha in [0, 1] is handled by
the analyses, not stored here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError

__all__ = [
    "DelayFeedback",
    "EquilibriumProblem",
    "PeriodicLinearProblem",
    "validate_equilibrium",
    "real_array",
    "real_matrix",
    "integer",
    "finite_scalar",
    "positive_finite",
]


def real_array(a, what: str) -> np.ndarray:
    """``a`` as a read-only float copy of a real array with finite entries.

    A complex array is accepted when its imaginary part is zero."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise InputError(f"{what} must be real")
        arr = arr.real
    arr = np.array(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must have finite entries")
    arr.flags.writeable = False
    return arr


def real_matrix(a, what: str, stacked: bool = False) -> np.ndarray:
    """:func:`real_array` of a nonempty square matrix; with ``stacked``, of
    a nonempty (m, n, n) stack of them, checked in one pass."""
    arr = real_array(a, what)
    if arr.ndim != 2 + stacked or arr.shape[-1] != arr.shape[-2] or arr.size == 0:
        kind = "a stack of square matrices" if stacked else "a square matrix"
        raise InputError(f"{what} must be {kind}, got shape {arr.shape}")
    return arr


def integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, refused unless it is an int or a numpy integer
    (not a bool, a float or a string) of at least ``least``, when given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise InputError(f"{what} must be {bound}, got {value}")
    return int(value)


def finite_scalar(value, what: str) -> float:
    """``value`` as a float, refused if it is infinite or nan."""
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value}")
    return value


def positive_finite(value, what: str) -> float:
    """:func:`finite_scalar` of a ``value`` in (0, inf); a nan, like a value
    at most 0, is refused as not positive."""
    value = float(value)
    if not value > 0.0:
        raise InputError(f"{what} must be positive, got {value}")
    return finite_scalar(value, what)


@dataclass(frozen=True)
class DelayFeedback:
    """Gain matrix and delay of the difference feedback K[x(t) - x(t-T)]."""

    gain: np.ndarray
    delay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", real_matrix(self.gain, "gain"))
        object.__setattr__(self, "delay", positive_finite(self.delay, "delay"))

    @property
    def dimension(self) -> int:
        return self.gain.shape[0]


@dataclass(frozen=True)
class EquilibriumProblem:
    """Equilibrium of an autonomous field under delayed feedback."""

    field: object
    point: np.ndarray
    feedback: DelayFeedback

    def __post_init__(self) -> None:
        point = real_array(self.point, "point")
        if point.ndim != 1:
            raise InputError("point must be a one-dimensional vector")
        if self.feedback.dimension != len(point):
            raise InputError(
                f"gain is {self.feedback.dimension}x{self.feedback.dimension} "
                f"but the point has dimension {len(point)}"
            )
        dim = getattr(self.field, "dimension", None)
        if dim is not None and dim != len(point):
            raise InputError(
                f"field dimension {dim} does not match point dimension {len(point)}"
            )
        object.__setattr__(self, "point", point)

    @property
    def dimension(self) -> int:
        return len(self.point)

    def jacobian(self) -> np.ndarray:
        return np.asarray(self.field.jacobian(self.point), dtype=float)


@dataclass(frozen=True)
class PeriodicLinearProblem:
    """Periodic linear system x' = A(t) x, delay locked to the period.

    Only the noninvasive case delay == period is meaningful for the
    feedback law used here, so mismatched values are rejected outright.
    """

    coefficient: Callable[[float], np.ndarray]
    period: float
    feedback: DelayFeedback

    def __post_init__(self) -> None:
        period = positive_finite(self.period, "period")
        if self.feedback.delay != period:
            raise InputError(
                f"delay {self.feedback.delay} must equal the period {period}"
            )
        object.__setattr__(self, "period", period)
        n = self.feedback.dimension
        # sampled sanity checks: shape, finiteness, periodicity
        scale = 0.0
        for t in np.linspace(0.0, period, 7):
            a = real_matrix(self.coefficient(float(t)), f"coefficient at t={t:g}")
            if a.shape != (n, n):
                raise InputError(
                    f"coefficient at t={t:g} has shape {a.shape}, expected {(n, n)}"
                )
            scale = max(scale, float(np.max(np.abs(a))))
            b = real_matrix(
                self.coefficient(float(t) + period), f"coefficient at t={t + period:g}"
            )
            if np.max(np.abs(b - a)) > 1e-9 * max(1.0, scale):
                raise InputError(f"coefficient is not {period:g}-periodic at t={t:g}")

    @property
    def dimension(self) -> int:
        return self.feedback.dimension

    def coefficient_at(self, t: float) -> np.ndarray:
        return self.coefficient_on(np.array([float(t)]))[0]

    def coefficient_on(self, times: np.ndarray) -> np.ndarray:
        """A(t) at every time, shape (S, n, n).

        Uses the coefficient's own ``batch`` evaluation when it has one;
        a plain callable is called once per time."""
        times = np.asarray(times, dtype=float)
        batch = getattr(self.coefficient, "batch", None)
        if batch is not None:
            return np.asarray(batch(times), dtype=float)
        n = self.dimension
        out = np.empty((len(times), n, n))
        for i, t in enumerate(times):
            out[i] = self.coefficient(float(t))
        return out


def validate_equilibrium(problem: EquilibriumProblem) -> float:
    """The field residual ||f(x*)|| at the problem's point.

    Returns the residual; the caller decides whether it passes tol_eq.
    """
    fx = np.asarray(problem.field(problem.point), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise InputError("field is not finite at the point")
    return float(np.linalg.norm(fx))
