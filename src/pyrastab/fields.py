"""Vector fields and periodic coefficient matrices.

Three field flavors cover everything the analyses need: fields parsed from
expression strings (with exact forward-mode Jacobians), plain linear
fields, and linear fields with a time-periodic coefficient.  Periodic
coefficients known only through uniform samples are reconstructed by
trigonometric interpolation.  The two coefficient classes evaluate a
whole array of times at once through ``batch``; their scalar call is the
one-time case of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expressions as ex
from .errors import InputError

__all__ = [
    "ExpressionField",
    "parse_field",
    "LinearField",
    "ConstantCoefficient",
    "TrigCoefficient",
]


@dataclass(frozen=True)
class ExpressionField:
    """Vector field defined componentwise by parsed expressions."""

    components: tuple[ex.Expr, ...]
    params: tuple[tuple[str, float], ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def param_map(self) -> dict[str, float]:
        return dict(self.params)

    def source_strings(self) -> tuple[str, ...]:
        return tuple(ex.to_source(c) for c in self.components)

    def __call__(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pm = self.param_map
        out = np.empty(self.dimension)
        for i, comp in enumerate(self.components):
            try:
                out[i] = ex.evaluate(comp, x, t, pm)
            except ex.DomainError as err:
                raise ex.DomainError(f"component {i + 1}: {err}") from None
        return out

    def jacobian(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pm = self.param_map
        n = self.dimension
        jac = np.empty((n, n))
        for i, comp in enumerate(self.components):
            for j in range(n):
                try:
                    _, jac[i, j] = ex.value_and_partial(comp, x, t, pm, j)
                except ex.DomainError as err:
                    raise ex.DomainError(f"component {i + 1}: {err}") from None
        return jac


def parse_field(
    sources: Sequence[str], params: Mapping[str, float] | None = None
) -> ExpressionField:
    """Parse one expression per component into a field of matching dimension."""
    sources = list(sources)
    if not sources:
        raise InputError("a field needs at least one component expression")
    pm: dict[str, float] = {}
    for name, value in (params or {}).items():
        if not isinstance(name, str) or not name.isidentifier():
            raise InputError(f"parameter name {name!r} is not an identifier")
        if name in ex.RESERVED:
            raise InputError(f"parameter name {name!r} is reserved")
        value = float(value)
        if not np.isfinite(value):
            raise InputError(f"parameter {name!r} must be finite")
        pm[name] = value
    dim = len(sources)
    comps = []
    for i, src in enumerate(sources):
        try:
            comps.append(ex.parse(src, dim, tuple(pm)))
        except ex.ParseError as err:
            raise InputError(f"component {i + 1}: {err}") from None
    return ExpressionField(tuple(comps), tuple(sorted(pm.items())))


@dataclass(frozen=True)
class LinearField:
    """Autonomous linear field f(x) = A x."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("LinearField needs a square matrix")
        if not np.all(np.isfinite(a)):
            raise InputError("LinearField matrix must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)

    def jacobian(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        return self.matrix.copy()


@dataclass(frozen=True)
class ConstantCoefficient:
    """Constant matrix exposed through the coefficient-callable interface."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("coefficient matrix must be square")
        if not np.all(np.isfinite(a)):
            raise InputError("coefficient matrix must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, t: float) -> np.ndarray:
        return self.batch(np.array([t]))[0]

    def batch(self, times: np.ndarray) -> np.ndarray:
        """The matrix at every time: a read-only (S, n, n) broadcast."""
        return np.broadcast_to(self.matrix, (len(times),) + self.matrix.shape)


class TrigCoefficient:
    """Trigonometric interpolant of a periodic matrix-valued function.

    Built from samples ``values[j] = A(j * period / m)``, ``j = 0..m-1``;
    evaluates the truncated Fourier series that interpolates the samples.
    For even ``m`` the Nyquist mode is taken as the cosine representative.
    """

    def __init__(self, values: np.ndarray, period: float) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise InputError("samples must have shape (m, n, n)")
        if values.shape[0] < 1:
            raise InputError("need at least one sample")
        if not np.all(np.isfinite(values)):
            raise InputError("samples must be finite")
        period = float(period)
        if not (period > 0.0) or not np.isfinite(period):
            raise InputError("period must be positive and finite")
        self.period = period
        self.samples = values.copy()
        self.samples.flags.writeable = False
        m, n = values.shape[:2]
        coef = np.fft.rfft(values, axis=0).reshape(-1, n * n)
        modes = len(coef)
        weights = np.full(modes, 2.0 / m)
        weights[0] = 1.0 / m
        if m % 2 == 0 and modes > 1:
            weights[-1] = 1.0 / m
        # mode k = b hi + lo of the two-level phase table (see ``batch``)
        self._b = math.isqrt(modes)
        self._tiers = -(-modes // self._b)
        coef = weights[:, None] * coef
        folded = np.zeros((self._tiers * self._b, 2, n * n))
        folded[:modes, 0] = coef.real
        folded[:modes, 1] = -coef.imag
        self._folded = folded.reshape(-1, n * n)

    @property
    def dimension(self) -> int:
        return self.samples.shape[1]

    def __call__(self, t: float) -> np.ndarray:
        return self.batch(np.array([t]))[0]

    def batch(self, times: np.ndarray) -> np.ndarray:
        """The interpolant at every time, shape (S, n, n): one real product
        of the (S, modes) phase table with the Fourier coefficients.

        The table is built in two levels.  With b = isqrt(modes) and
        k = b hi + lo, exp(2 pi i k x) = exp(2 pi i b hi x) exp(2 pi i lo x),
        so a time costs about 2 sqrt(modes) exponentials and one broadcast
        product instead of ``modes`` exponentials.  Each factor rounds its
        own angle, as the one-level table rounds 2 pi k x, so the two agree
        to about eps times the largest angle per mode: far below the
        interpolation error for smooth samples, and up to a few 1e-13
        relative for white-noise samples with a few hundred modes a few
        periods out, where the one-level table is itself that far off.

        The Nyquist and doubled-mode weights and the 1 / m of the inverse
        transform are folded into the coefficients at construction, which
        are zero-padded to the table's full tiers * b modes and stored as
        one real matrix with interleaved rows [Re c_k, -Im c_k].  Read as
        reals, the table's columns interleave [Re p_k, Im p_k] the same
        way, so Re(sum_k p_k c_k) is one real matrix product.
        """
        times = np.asarray(times, dtype=float)
        n = self.dimension
        b, tiers = self._b, self._tiers
        x = times[:, None] / self.period
        low = np.exp(2j * np.pi * np.arange(b) * x)
        high = np.exp(2j * np.pi * (b * np.arange(tiers)) * x)
        phase = (high[:, :, None] * low[:, None, :]).reshape(len(times), tiers * b)
        return (phase.view(float) @ self._folded).reshape(len(times), n, n)
