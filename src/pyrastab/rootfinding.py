"""Winding-number root counting and extraction for analytic functions.

Counts zeros inside axis-aligned rectangles by summing phase increments of
``f`` along the boundary, refining each segment until its phase step is
unambiguous; rectangles whose boundary passes too close to a zero are
nudged outward by a tiny amount.

Extraction runs Newton on the logarithmic derivative from seeds the caller
supplies; :func:`pyrastab.equilibria.find_roots` passes the eigenvalues of
a Chebyshev collocation of the delay equation's generator, whose order it
derives from the region and the norm bound of the characteristic matrix.
A seed decides no count and no multiplicity.  Each polished point is
certified by the winding count of a small box around it; the boxes are
disjoint, and their counts must add up to the rectangle's count.  A surplus
proves that count aliased and raises; a shortfall runs the recursive
subdivision, with Newton from each cell's centre, on the cells the boxes
leave unexplained.  Exact multiple roots terminate without infinite
refinement, because a box count, not Newton, gives the multiplicity.

What stays non-rigorous is the count itself: a boundary phase sampled in
floating point, with no interval arithmetic, so a phase that turns by
nearly 2 pi between two samples reads as a small step and aliases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, RootCountError

__all__ = ["Rect", "BoundaryRootError", "winding_count", "count_with_nudge", "find_roots_rect"]

_TINY = 1e-280          # boundary |f| below this is "on a root"
_PHASE_LIMIT = 1.5      # accepted phase step per segment, just under pi/2
_MODULUS_LIMIT = 1.4    # accepted |log modulus ratio| per segment, ~log 4
_MAX_SEGMENTS = 500_000
_CLUSTER_REL = 1e-7     # half-width of the certification box around a cluster
_SEED_MARGIN = 1e-3     # seeds within this times scale of the rectangle start Newton


def _linf(z: complex) -> float:
    return max(abs(z.real), abs(z.imag))


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


# an iterate that strays far left overflows exp(-lambda T) in dlog: the
# non-finite log-derivative ends the run below, and certify checks its point
@np.errstate(over="ignore", invalid="ignore")
def _newton(
    dlog: Callable[[complex], complex],
    z0: complex,
    rect: Rect,
    scale: float,
) -> tuple[complex, float] | None:
    """Newton iteration z -> z - 1/dlog(z); returns (root, last step size)
    or None.  Multiple roots converge linearly and then stall at the
    attainable accuracy; a stalled-but-small step is accepted.  A point with
    dlog = 0 is a critical point of f, where the run ends."""
    z = z0
    cap = 0.45 * rect.diag
    prev = np.inf
    stalls = 0
    for _ in range(160):
        try:
            g = complex(dlog(z))
        except (np.linalg.LinAlgError, ZeroDivisionError):
            return z, 0.0  # iterate landed exactly on a singular point: a root
        if not (np.isfinite(g.real) and np.isfinite(g.imag)):
            return z, 0.0  # the inverse overflowed: singular to working precision
        if g == 0:
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


def _holds(cell: Rect, box: tuple[complex, float, int]) -> bool:
    """Whether the certified ``box`` (centre, half-width, count) lies
    strictly inside ``cell``."""
    z, w, _ = box
    return cell.distance_to_boundary(z) > w


def _halvings(cell: Rect) -> Iterator[tuple[Rect, Rect]]:
    """Cuts across the longer side of ``cell`` at a few fractions."""
    for frac in (0.5, 0.44, 0.56, 0.37, 0.63, 0.3, 0.7):
        if cell.width >= cell.height:
            cut = cell.re0 + frac * cell.width
            yield Rect(cell.re0, cut, cell.im0, cell.im1), Rect(cut, cell.re1, cell.im0, cell.im1)
        else:
            cut = cell.im0 + frac * cell.height
            yield Rect(cell.re0, cell.re1, cell.im0, cut), Rect(cell.re0, cell.re1, cut, cell.im1)


def _polished_seeds(
    dlog: Callable[[complex], complex],
    seeds: Sequence[complex],
    outer: Rect,
    scale: float,
    conjugate: bool,
) -> list[tuple[complex, float]]:
    """Newton from every seed near ``outer``: distinct (point, last step)
    pairs.  Two points are one root when they lie within four last steps
    (and 1e-12 scale) of each other.  With ``conjugate`` only seeds with
    Im >= 0 run: a point within that distance of the real axis is put on
    it, and every other point comes with its exact mirror."""
    near = outer.inflate(_SEED_MARGIN * scale)
    points: list[tuple[complex, float]] = []
    for seed in seeds:
        seed = complex(seed)
        if not near.contains(seed) or (conjugate and seed.imag < 0.0):
            continue
        if conjugate and seed.imag == 0.0:
            # the collocation can split a close complex pair into two real
            # eigenvalues, and Newton started on the axis never leaves it
            seed += 1j * _CLUSTER_REL * (scale + abs(seed))
        polished = _newton(dlog, seed, outer, scale)
        if polished is None:
            continue
        z, last = polished
        if conjugate:
            on_axis = abs(z.imag) <= max(4.0 * last, 1e-12 * scale)
            z = complex(z.real, 0.0 if on_axis else abs(z.imag))
        if all(abs(z - p) > max(4.0 * last, 4.0 * q, 1e-12 * scale) for p, q in points):
            points.append((z, last))
    if conjugate:
        points += [(z.conjugate(), last) for z, last in points if z.imag]
    return points


def find_roots_rect(
    f: Callable[[np.ndarray], np.ndarray],
    dlog: Callable[[complex], complex],
    rect: Rect,
    accept: Callable[[complex], bool],
    max_spacing: float,
    scale: float,
    budget: float = 1e-5,
    seeds: Sequence[complex] = (),
    conjugate: bool = False,
) -> list[tuple[complex, int]]:
    """All zeros of ``f`` in ``rect`` as (location, multiplicity) pairs.

    ``accept`` is the residual test a polished candidate must pass.  Newton
    runs first from the ``seeds`` within 1e-3 ``scale`` of ``rect``;
    ``conjugate`` declares f(conj z) = conj f(z), and then the roots off the
    real axis are reported in exact mirror pairs.  Each polished point is
    certified by the winding count of a box around it, of half-width about
    ``1e-7 * scale``, shrunk to fit the rectangle and to stay clear of the
    other points and boxes, so distinct roots closer together than the
    usual box keep separate boxes.  A seed decides no count and no
    multiplicity: the boxes are disjoint, their counts must add up to the
    rectangle's count, a surplus proves that count aliased and raises
    :class:`RootCountError`, and a shortfall is searched by subdivision,
    only in the cells whose count the certified boxes leave unexplained.
    """
    min_segment = 1e-13 * scale
    total, outer = count_with_nudge(f, rect, max_spacing, min_segment, scale, budget)
    # certified roots: (centre, half-width, winding count of the box)
    boxes: list[tuple[complex, float, int]] = []

    def certify(
        cell: Rect, z: complex, last: float, others: Sequence[complex] = ()
    ) -> tuple[complex, float, int] | None:
        """Certify the polished point z by the count of a box inside
        ``cell``, clear of the certified boxes and of the ``others``;
        the box joins them when it holds a zero."""
        w = max(_CLUSTER_REL * (scale + abs(z)), 4.0 * last)
        room = min(
            [cell.distance_to_boundary(z)]
            + [_linf(z - c) - cw for c, cw, _ in boxes]
            + [0.5 * _linf(z - p) for p in others]
        )
        if room <= w:
            # a cut or another root passed within the usual box of z: shrink
            # the box to fit
            w = max(0.5 * room, 4.0 * last)
        if not (room > max(w, 1e-12 * scale) and accept(z)):
            return None
        box = Rect(z.real - w, z.real + w, z.imag - w, z.imag + w)
        try:
            inside = winding_count(f, box, w, 1e-3 * w)
        except BoundaryRootError:
            return None
        if inside == 0:
            return None
        boxes.append((z, w, inside))
        return boxes[-1]

    def split(cell: Rect, count: int) -> list[tuple[Rect, int]] | None:
        held = [b for b in boxes if _holds(cell, b)]
        for parts in _halvings(cell):
            # a cut through a certified box would lose its count
            if not all(any(_holds(p, b) for p in parts) for b in held):
                continue
            try:
                counts = [winding_count(f, p, max_spacing, min_segment) for p in parts]
            except BoundaryRootError:
                continue
            if sum(counts) == count:
                return list(zip(parts, counts))
        return None

    points = _polished_seeds(dlog, seeds, outer, scale, conjugate)
    for i, (z, last) in enumerate(points):
        certify(outer, z, last, [p for j, (p, _) in enumerate(points) if j != i])

    stack: list[tuple[Rect, int]] = [(outer, total)]
    guard = 0
    while stack:
        guard += 1
        if guard > 20_000:
            raise RootCountError(f"subdivision exploded inside {outer}")
        cell, count = stack.pop()
        rest = count - sum(b[2] for b in boxes if _holds(cell, b))
        if rest < 0:
            raise RootCountError(
                f"certified boxes hold {count - rest} zero(s) inside {cell}, "
                f"which counts {count}: the count aliased"
            )
        if rest == 0:
            continue

        # Newton from the centre certifies what the seeds left unexplained:
        # all of it, or a part that the halvings below keep whole
        polished = _newton(dlog, cell.center, cell, scale)
        box = None if polished is None else certify(cell, *polished)
        if box is not None and box[2] == rest:
            continue
        if cell.diag < 1e-9 * scale:
            raise RootCountError(f"could not resolve {rest} zero(s) inside {cell}")
        parts = split(cell, count)
        if parts is None:
            raise RootCountError(f"no admissible split line for {cell}")
        stack.extend(parts)

    found = []
    for z, w, m in boxes:
        # the subdivision certifies each root on its own: a box that holds
        # its own centre's mirror is reported on the axis, and one that
        # holds the mirror of a root above the axis at that mirror
        if conjugate and _linf(z.conjugate() - z) < w:
            z = complex(z.real, 0.0)
        elif conjugate and z.imag < 0.0:
            z = next((c.conjugate() for c, _, k in boxes
                      if k == m and _linf(c.conjugate() - z) < w), z)
        found.append((z, m))
    found.sort(key=lambda t: (t[0].real, t[0].imag))
    return found
