"""Winding-number root counting and extraction for analytic functions.

Counts zeros inside axis-aligned rectangles by summing phase increments of
``f`` along the boundary, refining each segment until its phase step is
unambiguous; rectangles whose boundary passes too close to a zero are
nudged outward by a tiny amount.  Extraction subdivides recursively,
polishes candidates by Newton steps on the logarithmic derivative, and
certifies multiplicities by re-counting a small enclosing box, so exact
multiple roots terminate without infinite refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, RootCountError

__all__ = ["Rect", "BoundaryRootError", "winding_count", "count_with_nudge", "find_roots_rect"]

_TINY = 1e-280          # boundary |f| below this is "on a root"
_PHASE_LIMIT = 1.5      # accepted phase step per segment, just under pi/2
_MODULUS_LIMIT = 1.4    # accepted |log modulus ratio| per segment, ~log 4
_MAX_SEGMENTS = 500_000
_CLUSTER_REL = 1e-7     # half-width of the certification box around a cluster


class BoundaryRootError(NumericalError):
    """A zero sits (numerically) on the counting boundary."""


@dataclass(frozen=True)
class Rect:
    re0: float
    re1: float
    im0: float
    im1: float

    def __post_init__(self) -> None:
        if not (self.re1 > self.re0 and self.im1 > self.im0):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.re1 - self.re0

    @property
    def height(self) -> float:
        return self.im1 - self.im0

    @property
    def diag(self) -> float:
        return float(np.hypot(self.width, self.height))

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re0 + self.re1), 0.5 * (self.im0 + self.im1))

    def inflate(self, eps: float) -> "Rect":
        return Rect(self.re0 - eps, self.re1 + eps, self.im0 - eps, self.im1 + eps)

    def contains(self, z: complex) -> bool:
        return self.re0 <= z.real <= self.re1 and self.im0 <= z.imag <= self.im1

    def distance_to_boundary(self, z: complex) -> float:
        return min(
            z.real - self.re0, self.re1 - z.real, z.imag - self.im0, self.im1 - z.imag
        )


def _boundary_vertices(rect: Rect, max_spacing: float) -> np.ndarray:
    corners = [
        complex(rect.re0, rect.im0),
        complex(rect.re1, rect.im0),
        complex(rect.re1, rect.im1),
        complex(rect.re0, rect.im1),
    ]
    pieces = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = int(np.ceil(abs(b - a) / max_spacing))
        n = min(max(n, 8), 4096)
        pieces.append(a + (b - a) * (np.arange(n) / n))
    return np.concatenate(pieces)


def winding_count(
    f: Callable[[np.ndarray], np.ndarray],
    rect: Rect,
    max_spacing: float,
    min_segment: float,
) -> int:
    """Number of zeros (with multiplicity) of ``f`` inside ``rect``.

    Raises :class:`BoundaryRootError` when refinement drives a boundary
    segment below ``min_segment`` without resolving its phase step, or
    when ``f`` vanishes at a boundary node.
    """
    verts = _boundary_vertices(rect, max_spacing)
    z0 = verts
    z1 = np.roll(verts, -1)
    d0 = np.asarray(f(z0), dtype=complex)
    d1 = np.roll(d0, -1)
    total = 0.0
    for _ in range(200):
        if not np.all(np.isfinite(d0)):
            raise NumericalError(
                "characteristic function overflowed on the counting boundary; "
                "shrink the region"
            )
        if np.any(np.abs(d0) < _TINY):
            raise BoundaryRootError(f"zero on the boundary of {rect}")
        ratio = d1 / d0
        dphi = np.angle(ratio)
        dmod = np.abs(np.log(np.abs(ratio)))
        ok = (np.abs(dphi) <= _PHASE_LIMIT) & (dmod <= _MODULUS_LIMIT)
        total += float(dphi[ok].sum())
        if ok.all():
            break
        z0r, z1r, d0r, d1r = z0[~ok], z1[~ok], d0[~ok], d1[~ok]
        if np.any(np.abs(z1r - z0r) < min_segment):
            raise BoundaryRootError(f"unresolvable phase step on the boundary of {rect}")
        zm = 0.5 * (z0r + z1r)
        dm = np.asarray(f(zm), dtype=complex)
        z0 = np.concatenate([z0r, zm])
        z1 = np.concatenate([zm, z1r])
        d0 = np.concatenate([d0r, dm])
        d1 = np.concatenate([dm, d1r])
        if len(z0) > _MAX_SEGMENTS:
            raise NumericalError(f"boundary refinement exploded on {rect}")
    else:
        raise BoundaryRootError(f"boundary refinement did not settle on {rect}")
    n = total / (2.0 * np.pi)
    ni = int(np.round(n))
    if abs(total - 2.0 * np.pi * ni) > 1e-6 * (1.0 + abs(total)) + 1e-9:
        raise NumericalError(f"non-integer winding number {n:.6f} on {rect}")
    if ni < 0:
        raise NumericalError(f"negative winding number {ni} on {rect}; f is not analytic there")
    return ni


def count_with_nudge(
    f: Callable[[np.ndarray], np.ndarray],
    rect: Rect,
    max_spacing: float,
    min_segment: float,
    scale: float,
    budget: float,
) -> tuple[int, Rect]:
    """Count zeros, inflating the rectangle outward (up to ``budget * scale``)
    when a zero obstructs the boundary.  Returns the count and the rectangle
    actually used; the caller classifies extracted roots by value."""
    eps = 0.0
    for _ in range(10):
        r = rect if eps == 0.0 else rect.inflate(eps)
        try:
            return winding_count(f, r, max_spacing, min_segment), r
        except BoundaryRootError:
            eps = max(eps * 8.0, 1e-12 * scale)
            if eps > budget * scale:
                break
    raise NumericalError(f"persistent zero on the boundary of {rect}")


def _newton(
    dlog: Callable[[complex], complex],
    z0: complex,
    rect: Rect,
    scale: float,
) -> tuple[complex, float] | None:
    """Newton iteration z -> z - 1/dlog(z); returns (root, last step size)
    or None.  Multiple roots converge linearly and then stall at the
    attainable accuracy; a stalled-but-small step is accepted."""
    z = z0
    cap = 0.45 * rect.diag
    prev = np.inf
    stalls = 0
    for _ in range(160):
        try:
            g = complex(dlog(z))
        except (np.linalg.LinAlgError, ZeroDivisionError):
            return z, 0.0  # iterate landed exactly on a singular point: a root
        if not (np.isfinite(g.real) and np.isfinite(g.imag)) or g == 0:
            return None
        step = -1.0 / g
        mag = abs(step)
        if mag > cap:
            step *= cap / mag
            mag = cap
        z = z + step
        if abs(z - rect.center) > 2.0 * rect.diag:
            return None
        if mag <= 1e-13 * (scale + abs(z)):
            return z, mag
        if mag >= 0.9 * prev and mag <= 1e-5 * (scale + abs(z)):
            stalls += 1
            if stalls >= 3:
                return z, mag
        else:
            stalls = 0
        prev = mag
    return None


def find_roots_rect(
    f: Callable[[np.ndarray], np.ndarray],
    dlog: Callable[[complex], complex],
    rect: Rect,
    accept: Callable[[complex], bool],
    max_spacing: float,
    scale: float,
    budget: float = 1e-5,
) -> list[tuple[complex, int]]:
    """All zeros of ``f`` in ``rect`` as (location, multiplicity) pairs.

    ``accept`` is the residual test a polished candidate must pass.
    Clusters tighter than about ``1e-7 * scale`` are reported as a single
    root with the combined multiplicity.
    """
    min_segment = 1e-13 * scale
    fractions = (0.5, 0.44, 0.56, 0.37, 0.63, 0.3, 0.7)

    total, outer = count_with_nudge(f, rect, max_spacing, min_segment, scale, budget)
    found: list[tuple[complex, int]] = []
    stack: list[tuple[Rect, int]] = [(outer, total)]
    guard = 0
    while stack:
        guard += 1
        if guard > 20_000:
            raise RootCountError(f"subdivision exploded inside {outer}")
        cell, count = stack.pop()
        if count == 0:
            continue

        polished = _newton(dlog, cell.center, cell, scale)
        if polished is not None:
            z, last = polished
            clearance = cell.distance_to_boundary(z)
            w = max(_CLUSTER_REL * (scale + abs(z)), 4.0 * last)
            if clearance > max(w, 1e-9 * scale) and accept(z):
                box = Rect(z.real - w, z.real + w, z.imag - w, z.imag + w)
                try:
                    inside = winding_count(f, box, w, 1e-3 * w)
                except BoundaryRootError:
                    inside = -1
                if inside == count:
                    found.append((z, count))
                    continue

        if cell.diag < 1e-9 * scale:
            raise RootCountError(
                f"could not resolve {count} zero(s) inside {cell}"
            )

        for frac in fractions:
            if cell.width >= cell.height:
                cut = cell.re0 + frac * cell.width
                a = Rect(cell.re0, cut, cell.im0, cell.im1)
                b = Rect(cut, cell.re1, cell.im0, cell.im1)
            else:
                cut = cell.im0 + frac * cell.height
                a = Rect(cell.re0, cell.re1, cell.im0, cut)
                b = Rect(cell.re0, cell.re1, cut, cell.im1)
            try:
                na = winding_count(f, a, max_spacing, min_segment)
                nb = winding_count(f, b, max_spacing, min_segment)
            except BoundaryRootError:
                continue
            if na + nb == count:
                stack.append((a, na))
                stack.append((b, nb))
                break
        else:
            raise RootCountError(f"no admissible split line for {cell}")

    found.sort(key=lambda t: (t[0].real, t[0].imag))
    return found
