"""Winding-number root counting and extraction for analytic functions.

Counts zeros inside axis-aligned rectangles by summing phase increments of
``f`` along the boundary, refining each segment until its phase step is
unambiguous; rectangles whose boundary passes too close to a zero are
nudged outward by a tiny amount (the argument-principle count of
Kravanja & Van Barel, LNM 1727, 2000).  For a function the caller
declares real, f(conj z) = conj f(z), the zeros are mirror-symmetric
about the real axis, and a rectangle symmetric about that axis is
counted on the upper half of its boundary alone, from (re1, 0) to
(re0, 0), with the phase sum doubled.

Extraction runs Newton on the logarithmic derivative from batches of
seeds the caller supplies; :func:`pyrastab.equilibria.find_roots` passes
the eigenvalues of a Chebyshev collocation of the delay equation's
generator, whose order it derives from the region and the norm bound of
the characteristic matrix, and doubles that order, up to a size cap,
for each further batch.  A seed decides no count and no multiplicity.
Each polished point is certified by the winding count of a small box
around it; for a real function a point above the axis and its exact
mirror share one box half-width, one residual test and one count.  The boxes are disjoint,
and their counts must add up to the rectangle's count.  A surplus
proves that count aliased and raises; a shortfall draws the next batch
of seeds, and raises once the batches run out.  Exact multiple roots
terminate without infinite refinement, because a box count, not Newton,
gives the multiplicity.

What stays non-rigorous is the count itself: a boundary phase sampled in
floating point, with no interval arithmetic, so a phase that turns by
nearly 2 pi between two samples reads as a small step and aliases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def _edge_count(length: float, max_spacing: float) -> int:
    """Points on an edge: ceil(length / max_spacing), at least 8 and at
    most 4096."""
    return min(max(int(np.ceil(length / max_spacing)), 8), 4096)


def _edge(a: complex, b: complex, n: int) -> np.ndarray:
    """n evenly spaced points from a towards b, b left out."""
    return a + (b - a) * (np.arange(n) / n)


def _boundary_vertices(rect: Rect, max_spacing: float, half: bool = False) -> np.ndarray:
    """The counting path: the closed boundary counterclockwise from
    (re0, im0), or with ``half`` the open upper half from (re1, 0) up the
    right edge, along the top and down to (re0, 0), both ends included.
    A half edge gets half its full edge's points, rounded up, so no
    segment is longer than on the closed path."""
    if not half:
        corners = [
            complex(rect.re0, rect.im0),
            complex(rect.re1, rect.im0),
            complex(rect.re1, rect.im1),
            complex(rect.re0, rect.im1),
        ]
        return np.concatenate([_edge(a, b, _edge_count(abs(b - a), max_spacing))
                               for a, b in zip(corners, corners[1:] + corners[:1])])
    side = -(-_edge_count(rect.height, max_spacing) // 2)
    top = _edge_count(rect.width, max_spacing)
    return np.concatenate([
        _edge(complex(rect.re1, 0.0), complex(rect.re1, rect.im1), side),
        _edge(complex(rect.re1, rect.im1), complex(rect.re0, rect.im1), top),
        _edge(complex(rect.re0, rect.im1), complex(rect.re0, 0.0), side),
        [complex(rect.re0, 0.0)],
    ])


def _checked(d: np.ndarray, rect: Rect) -> np.ndarray:
    """The boundary values ``d`` of ``rect``, once none overflowed and none
    vanishes."""
    if not np.all(np.isfinite(d)):
        raise NumericalError(
            "characteristic function overflowed on the counting boundary; "
            "shrink the region"
        )
    if np.any(np.abs(d) < _TINY):
        raise BoundaryRootError(f"zero on the boundary of {rect}")
    return d


def winding_count(
    f: Callable[[np.ndarray], np.ndarray],
    rect: Rect,
    max_spacing: float,
    min_segment: float,
    conjugate: bool = False,
) -> int:
    """Number of zeros (with multiplicity) of ``f`` inside ``rect``.

    ``conjugate`` declares f(conj z) = conj f(z).  On a rectangle
    symmetric about the real axis (im0 == -im1) the phase is then summed
    on the upper half of the boundary alone, from (re1, 0) to (re0, 0),
    and doubled: the lower half is its mirror image traversed backwards,
    and turns the phase by the same amount.  Each half edge gets half the
    full edge's points, rounded up, and both axis points are vertices.
    Otherwise the whole boundary is walked.  Either way the phase is
    sampled in floating point, with no interval arithmetic.

    Raises :class:`BoundaryRootError` when refinement drives a boundary
    segment below ``min_segment`` without resolving its phase step, or
    when ``f`` vanishes at a boundary node.
    """
    half = conjugate and rect.im0 == -rect.im1
    verts = _boundary_vertices(rect, max_spacing, half)
    d = _checked(np.asarray(f(verts), dtype=complex), rect)
    if half:
        z0, z1, d0, d1 = verts[:-1], verts[1:], d[:-1], d[1:]
    else:
        z0, z1, d0, d1 = verts, np.roll(verts, -1), d, np.roll(d, -1)
    total = 0.0
    for _ in range(200):
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
        dm = _checked(np.asarray(f(zm), dtype=complex), rect)
        z0 = np.concatenate([z0r, zm])
        z1 = np.concatenate([zm, z1r])
        d0 = np.concatenate([d0r, dm])
        d1 = np.concatenate([dm, d1r])
        if len(z0) > _MAX_SEGMENTS:
            raise NumericalError(f"boundary refinement exploded on {rect}")
    else:
        raise BoundaryRootError(f"boundary refinement did not settle on {rect}")
    if half:
        total *= 2.0
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
    conjugate: bool = False,
) -> tuple[int, Rect]:
    """Count zeros, inflating the rectangle outward (up to ``budget * scale``)
    when a zero obstructs the boundary.  Returns the count and the rectangle
    actually used; the caller classifies extracted roots by value.

    ``conjugate`` declares f(conj z) = conj f(z); only on a rectangle
    symmetric about the real axis does a try then count on the upper half
    of the boundary alone (see :func:`winding_count`), and the inflation
    keeps such a rectangle symmetric.  Every try samples the boundary
    phase in floating point, with no interval arithmetic."""
    eps = 0.0
    for _ in range(10):
        r = rect if eps == 0.0 else rect.inflate(eps)
        try:
            return winding_count(f, r, max_spacing, min_segment, conjugate), r
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


def _polished_seeds(
    dlog: Callable[[complex], complex],
    seeds: Sequence[complex],
    outer: Rect,
    scale: float,
    conjugate: bool,
) -> list[tuple[complex, float]]:
    """Newton from every seed near ``outer``: distinct (point, last step)
    pairs.  Two points are one root when they lie within four last steps
    (and 1e-12 scale) of each other.  With ``conjugate`` a seed below the
    axis runs only when its mirror is not near ``outer``, a point within
    that distance of the real axis is put on it, and every other point is
    put on its seed's side: each point stands for its exact mirror too."""
    near = outer.inflate(_SEED_MARGIN * scale)
    points: list[tuple[complex, float]] = []
    for seed in seeds:
        seed = complex(seed)
        if not near.contains(seed) or (conjugate and seed.imag < 0.0
                                       and near.contains(seed.conjugate())):
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
            z = complex(z.real, 0.0 if on_axis else np.copysign(z.imag, seed.imag))
        if all(abs(z - p) > max(4.0 * last, 4.0 * q, 1e-12 * scale) for p, q in points):
            points.append((z, last))
    return points


def find_roots_rect(
    f: Callable[[np.ndarray], np.ndarray],
    dlog: Callable[[complex], complex],
    rect: Rect,
    accept: Callable[[complex], bool],
    max_spacing: float,
    scale: float,
    budget: float = 1e-5,
    seeds: Iterable[Sequence[complex]] = (),
    conjugate: bool = False,
) -> list[tuple[complex, int]]:
    """All zeros of ``f`` in ``rect`` as (location, multiplicity) pairs.

    ``accept`` is the residual test a polished candidate must pass.
    ``seeds`` is an iterable of seed batches, taken in turn: Newton runs
    from the batch's seeds within 1e-3 ``scale`` of ``rect``, the polished
    points are certified, and no further batch is drawn once the certified
    boxes hold the rectangle's count.  ``conjugate`` declares f(conj z) =
    conj f(z); then a seed below the axis runs only when its mirror is not
    near ``rect``, each polished point stands for its mirror too, and the
    roots off the real axis are reported in exact mirror pairs.  Each
    polished point is certified by the winding count of a box around it,
    of half-width about ``1e-7 * scale``, shrunk to fit the rectangle and
    to stay clear of the other points and boxes, so distinct roots closer
    together than the usual box keep separate boxes.  With ``conjugate`` a
    polished point off the axis and its mirror inside the rectangle are
    certified as one pair: one half-width that clears both boxes, one
    residual test and one box count, which the mirror box shares.  Every
    count on a rectangle symmetric about the real axis (the rectangle, a
    real root's box) then walks the upper half of its boundary alone (see
    :func:`winding_count`).  A seed decides no count and no multiplicity:
    the boxes are disjoint, and their counts must add up to the
    rectangle's count.  A surplus proves that count aliased, and a
    shortfall left when the batches run out is unexplained; both raise
    :class:`RootCountError`.
    """
    total, outer = count_with_nudge(f, rect, max_spacing, 1e-13 * scale, scale, budget, conjugate)
    # certified roots: (centre, half-width, winding count of the box)
    boxes: list[tuple[complex, float, int]] = []

    def certify(z: complex, last: float, others: Sequence[complex], pair: bool) -> None:
        """Certify the polished point z by the count of a box inside
        ``outer``, clear of the certified boxes and of the ``others``;
        the box joins them when it holds a zero.  With ``pair`` the box
        around conj z, of the same half-width, must fit too, and joins
        them with the same count."""
        centres = (z, z.conjugate()) if pair else (z,)
        w = max(_CLUSTER_REL * (scale + abs(z)), 4.0 * last)
        room = min(
            [outer.distance_to_boundary(c) for c in centres]
            + [_linf(c - b) - bw for c in centres for b, bw, _ in boxes]
            + [0.5 * _linf(c - p) for c in centres for p in others if p != c]
        )
        if room <= w:
            # an edge or another root passed within the usual box of z:
            # shrink the box to fit
            w = max(0.5 * room, 4.0 * last)
        if not (room > max(w, 1e-12 * scale) and accept(z)):
            return
        box = Rect(z.real - w, z.real + w, z.imag - w, z.imag + w)
        try:
            inside = winding_count(f, box, w, 1e-3 * w, conjugate)
        except BoundaryRootError:
            return
        if inside:
            boxes.extend((c, w, inside) for c in centres)

    held = 0
    for batch in seeds:
        points = _polished_seeds(dlog, batch, outer, scale, conjugate)
        every = [z for z, _ in points] + [z.conjugate() for z, _ in points if conjugate and z.imag]
        for z, last in points:
            # a mirror outside the rectangle is no root of it: z goes alone
            pair = conjugate and z.imag != 0.0 and outer.contains(z.conjugate())
            certify(z, last, every, pair)
        held = sum(m for _, _, m in boxes)
        if held > total:
            raise RootCountError(
                f"certified boxes hold {held} zero(s) inside {outer}, "
                f"which counts {total}: the count aliased"
            )
        if held == total:
            break
    if held < total:
        raise RootCountError(f"the seeds explain {held} of the {total} zero(s) inside {outer}")
    return sorted(((z, m) for z, _, m in boxes), key=lambda t: (t[0].real, t[0].imag))
