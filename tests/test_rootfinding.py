"""Argument-principle counting and root extraction on known functions.

Polynomials with prescribed zeros make exact oracles: the winding count,
the extracted locations, and the reported multiplicities are all known
ahead of time.
"""

import numpy as np
import pytest

from pyrastab import rootfinding
from pyrastab.errors import NumericalError, RootCountError
from pyrastab.rootfinding import (
    BoundaryRootError,
    Rect,
    count_with_nudge,
    find_roots_rect,
    winding_count,
)


def _poly(zeros):
    zeros = [complex(z) for z in zeros]

    def f(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for w in zeros:
            out = out * (z - w)
        return out

    def dlog(z):
        return complex(sum(1.0 / (z - w) for w in zeros))

    return f, dlog


def test_rect_validation_and_geometry():
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, -1.0, 1.0)
    r = Rect(-1.0, 3.0, -2.0, 2.0)
    assert r.width == 4.0 and r.height == 4.0
    assert r.center == 1.0 + 0.0j
    assert r.contains(1.0 + 1.0j)
    assert not r.contains(4.0 + 0.0j)


def test_winding_count_polynomials():
    rng = np.random.default_rng(31)
    rect = Rect(-1.0, 1.0, -1.0, 1.0)
    for _ in range(20):
        n_in = int(rng.integers(0, 4))
        n_out = int(rng.integers(0, 3))
        inside = (rng.uniform(-0.7, 0.7, n_in) + 1j * rng.uniform(-0.7, 0.7, n_in)).tolist()
        outside = (rng.uniform(1.5, 3.0, n_out) + 1j * rng.uniform(-0.5, 0.5, n_out)).tolist()
        f, _ = _poly(inside + outside)
        assert winding_count(f, rect, 0.2, 1e-12) == n_in


def test_winding_count_multiplicity():
    f, _ = _poly([0.2 + 0.1j] * 3)
    assert winding_count(f, Rect(-1, 1, -1, 1), 0.2, 1e-12) == 3


def test_winding_count_rejects_boundary_zero():
    f, _ = _poly([1.0 + 0.0j])  # exactly on the right edge
    with pytest.raises(BoundaryRootError):
        winding_count(f, Rect(-1, 1, -1, 1), 0.2, 1e-12)


def test_count_with_nudge_steps_off_a_boundary_zero():
    f, _ = _poly([1.0 + 0.0j, 0.0 + 0.0j])
    n, used = count_with_nudge(f, Rect(-1, 1, -1, 1), 0.2, 1e-13, 1.0, 1e-5)
    # the inflated rectangle swallows the edge zero: both are reported,
    # and the caller classifies them by value against the original window
    assert n == 2
    assert used.re1 > 1.0


def test_find_roots_rect_simple_zeros():
    rng = np.random.default_rng(33)
    rect = Rect(-1.0, 1.0, -1.0, 1.0)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        zeros = rng.uniform(-0.6, 0.6, k) + 1j * rng.uniform(-0.6, 0.6, k)
        # keep the zeros separated so each is its own cluster
        if k > 1 and np.min(np.abs(np.subtract.outer(zeros, zeros))[~np.eye(k, dtype=bool)]) < 0.2:
            continue
        f, dlog = _poly(zeros)
        pairs = find_roots_rect(f, dlog, rect, lambda z: True, 0.2, 1.0)
        assert sorted(m for _, m in pairs) == [1] * k
        for z, _ in pairs:
            assert min(abs(z - w) for w in zeros) < 1e-9


def test_find_roots_rect_reports_multiplicity():
    f, dlog = _poly([0.3 - 0.2j, 0.3 - 0.2j, -0.4 + 0.5j])
    pairs = find_roots_rect(f, dlog, Rect(-1, 1, -1, 1), lambda z: True, 0.2, 1.0)
    by_mult = sorted(pairs, key=lambda p: p[1])
    assert [m for _, m in by_mult] == [1, 2]
    assert by_mult[0][0] == pytest.approx(-0.4 + 0.5j, abs=1e-9)
    assert by_mult[1][0] == pytest.approx(0.3 - 0.2j, abs=1e-7)


def test_find_roots_rect_empty():
    f, dlog = _poly([5.0 + 0.0j])
    assert find_roots_rect(f, dlog, Rect(-1, 1, -1, 1), lambda z: True, 0.2, 1.0) == []


def test_winding_count_flags_overflow():
    def f(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore"):
            return np.exp(z * 1e6)

    with pytest.raises((NumericalError, BoundaryRootError)):
        winding_count(f, Rect(-1000.0, 1000.0, -1000.0, 1000.0), 100.0, 1e-12)


def test_seeds_alone_certify_a_pair_closer_than_the_usual_box(monkeypatch):
    # the usual box (half-width 1e-7) would hold both zeros; the seeds tell
    # them apart, so each gets a box of its own and no subdivision runs
    zeros = [0.1 + 0.2j, 0.1 + 0.2j + 3e-9]
    f, dlog = _poly(zeros + [-0.5 - 0.3j])

    def refuse(cell):
        raise AssertionError(f"the subdivision ran on {cell}")

    monkeypatch.setattr(rootfinding, "_halvings", refuse)
    seeds = [z + 1e-11 for z in zeros] + [-0.5 - 0.3j]
    pairs = find_roots_rect(f, dlog, Rect(-1, 1, -1, 1), lambda z: True, 0.2, 1.0, seeds=seeds)
    assert [m for _, m in pairs] == [1, 1, 1]
    assert [z for z, _ in pairs] == pytest.approx(sorted(zeros + [-0.5 - 0.3j], key=lambda z: z.real),
                                                  abs=1e-13)


def test_a_surplus_of_certified_zeros_proves_the_count_aliased(monkeypatch):
    # the boxes around both seeds hold one zero each; a count of 1 for the
    # whole rectangle is impossible, and is refused rather than trusted
    f, dlog = _poly([0.3, -0.4j])
    monkeypatch.setattr(rootfinding, "count_with_nudge", lambda f, rect, *args: (1, rect))
    with pytest.raises(RootCountError, match="aliased"):
        find_roots_rect(f, dlog, Rect(-1, 1, -1, 1), lambda z: True, 0.2, 1.0,
                        seeds=[0.3, -0.4j])


def test_conjugate_roots_are_exact_mirrors_with_and_without_seeds():
    # a double pair stalls Newton short of full accuracy, from wherever it
    # starts; the rectangle is not symmetric about the real axis, so neither
    # are the cells of the subdivision
    zeros = [0.3 + 0.4j, 0.3 - 0.4j, -0.2, -0.6 + 0.1j, -0.6 - 0.1j]
    f, dlog = _poly(zeros + zeros[:2])
    for seeds in ((), [z + 1e-3 for z in zeros]):
        pairs = find_roots_rect(f, dlog, Rect(-1, 1, -0.9, 1.3), lambda z: True, 0.2, 1.0,
                                seeds=seeds, conjugate=True)
        values = [z for z, _ in pairs]
        assert len(values) == 5 and all(z.conjugate() in values for z in values)
        assert values == pytest.approx(sorted(zeros, key=lambda z: (z.real, z.imag)), abs=1e-7)
        assert [m for z, m in pairs if abs(abs(z.imag) - 0.4) < 1e-6] == [2, 2]
