"""Vector fields and periodic coefficient matrices.

Three field flavors cover everything the analyses need: autonomous fields
f(x) parsed from expression strings (with exact forward-mode Jacobians),
autonomous linear fields f(x) = A x, and time-periodic coefficients A(t)
of linear fields.  Periodic coefficients known only through uniform
samples are reconstructed by trigonometric interpolation.  The two
coefficient classes evaluate a whole array of times at once through
``batch``; their scalar call is the one-time case of it.  A trigonometric
coefficient also samples a whole uniform grid of one period at once
through ``on_grid``, by one inverse FFT.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expressions as ex
from .errors import InputError
from .problems import positive_finite, real_matrix

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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pm = self.param_map
        out = np.empty(self.dimension)
        for i, comp in enumerate(self.components):
            try:
                out[i] = ex.evaluate(comp, x, pm)
            except ex.DomainError as err:
                raise ex.DomainError(f"expressions[{i}]: {err}") from None
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pm = self.param_map
        n = self.dimension
        jac = np.empty((n, n))
        for i, comp in enumerate(self.components):
            for j in range(n):
                try:
                    _, jac[i, j] = ex.value_and_partial(comp, x, pm, j)
                except ex.DomainError as err:
                    raise ex.DomainError(f"expressions[{i}]: {err}") from None
        return jac


def parse_field(
    expressions: Sequence[str], params: Mapping[str, float] | None = None
) -> ExpressionField:
    """Parse one expression per component into a field of matching dimension.

    An error names the offending entry as ``expressions[i]`` or
    ``params.<name>``, so a caller reading them from a document can prefix
    its own path.  A parameter may not be named like a function or a state
    variable ``x1, x2, ...``, which would shadow it or be shadowed.
    """
    expressions = list(expressions)
    if not expressions:
        raise InputError("a field needs at least one component expression")
    pm: dict[str, float] = {}
    for name, value in (params or {}).items():
        if not isinstance(name, str) or not name.isidentifier():
            raise InputError(f"params.{name}: {name!r} is not an identifier")
        if name in ex.FUNCTIONS or re.fullmatch(r"x[0-9]+", name):
            raise InputError(
                f"params.{name}: {name!r} names a function or a state variable"
            )
        value = float(value)
        if not np.isfinite(value):
            raise InputError(f"params.{name}: must be finite")
        pm[name] = value
    dim = len(expressions)
    comps = []
    for i, src in enumerate(expressions):
        try:
            comps.append(ex.parse(src, dim, tuple(pm)))
        except ex.ParseError as err:
            raise InputError(f"expressions[{i}]: {err}") from None
    return ExpressionField(tuple(comps), tuple(sorted(pm.items())))


@dataclass(frozen=True)
class LinearField:
    """Autonomous linear field f(x) = A x."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", real_matrix(self.matrix, "LinearField matrix"))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.copy()


@dataclass(frozen=True)
class ConstantCoefficient:
    """Constant matrix exposed through the coefficient-callable interface."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", real_matrix(self.matrix, "coefficient matrix"))

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
        self.samples = real_matrix(values, "samples", stacked=True)
        self.period = positive_finite(period, "period")
        m, n = self.samples.shape[:2]
        coef = np.fft.rfft(self.samples, axis=0).reshape(-1, n * n)
        modes = len(coef)
        weights = np.full(modes, 2.0 / m)
        weights[0] = 1.0 / m
        if m % 2 == 0 and modes > 1:
            weights[-1] = 1.0 / m
        # mode k = b hi + lo of the two-level phase table (see ``batch``)
        self._b = math.isqrt(modes)
        self._tiers = -(-modes // self._b)
        self._coef = coef = weights[:, None] * coef
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

    def on_grid(self, intervals: int) -> np.ndarray:
        """The interpolant at the times j period / intervals, j = 0..intervals,
        shape (intervals + 1, n, n).

        Mode k at those times is the grid's frequency k mod intervals, so
        folding the weighted coefficients into those bins is exact there,
        and one inverse real FFT of the folded half spectrum samples every
        time (Trefethen, *Spectral Methods in MATLAB*, ch. 3).  A mode
        beyond the grid's Nyquist frequency folds onto its alias, which
        takes the same values on the grid, so no sample aliases.
        """
        n = self.dimension
        # Re(c w^b) at bin b > intervals / 2 is Re(conj(c) w^(intervals - b));
        # interior bins count twice in the Hermitian spectrum, and irfft
        # drops the imaginary part of the zero and Nyquist bins
        bins = np.arange(len(self._coef)) % intervals
        mirror = 2 * bins > intervals
        half = np.zeros((intervals // 2 + 1, n * n), dtype=complex)
        np.add.at(
            half,
            np.where(mirror, intervals - bins, bins),
            np.where(mirror[:, None], self._coef.conj(), self._coef),
        )
        half[1 : (intervals + 1) // 2] *= 0.5
        out = np.empty((intervals + 1, n * n))
        out[:-1] = np.fft.irfft(half, n=intervals, axis=0, norm="forward")
        out[-1] = out[0]
        return out.reshape(intervals + 1, n, n)
