"""Small dense linear-algebra helpers shared by the spectral modules.

Every rank decision in the package goes through one rule, ``svd_rank``:
the count of singular values above max(n eps sigma_max rank_factor,
floor).  Callers differ only in the floor: 0 for a plain rank,
tol_res max(1, sigma_max) for a characteristic root, 10 band for an
eigenvalue cluster of radius band, and n eps rank_factor max(1, ||J||)
for an eigenspace of J, whose shifted matrix may be rounding noise.
Multiplicity of a cluster goes through an ordered Schur form, so that
the answer survives non-normality (raw singular-value thresholds
against a badly scaled matrix do not); ``cluster_multiplicities``
computes one Schur form per matrix, real for a real matrix, and
reorders a copy of it for each cluster.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalError

__all__ = [
    "spectral_norm",
    "svd_rank",
    "kernel_basis",
    "cluster_multiplicities",
    "cluster_multiplicity",
]


def spectral_norm(a: np.ndarray) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def svd_rank(svals: np.ndarray, n: int, rank_factor: float, floor: float = 0.0) -> int:
    """Number of singular values ``svals`` (descending, of a matrix whose
    larger side is ``n``) above max(n eps sigma_max rank_factor, floor)."""
    smax = float(svals[0]) if len(svals) else 0.0
    tau = max(n * np.finfo(float).eps * smax * rank_factor, floor)
    return int(np.count_nonzero(svals > tau))


def kernel_basis(a: np.ndarray, rank_factor: float = 1e4, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space, shape (n, dim); the
    rank cutoff is :func:`svd_rank`'s, with the same ``floor``."""
    a = np.atleast_2d(np.asarray(a))
    _, svals, vh = scipy.linalg.svd(a)
    return vh[svd_rank(svals, max(a.shape), rank_factor, floor):].conj().T


def _within(eigs: np.ndarray, value: complex, band: float) -> np.ndarray:
    """Which of ``eigs`` lie within distance ``band`` of ``value``."""
    d = eigs - value  # hypot rounds like scalar abs; np.abs on arrays may not
    return np.hypot(d.real, d.imag) <= band


def _complex_blocks(a: np.ndarray, clusters: list[tuple[complex, float]]) -> list[np.ndarray]:
    """Per cluster, the leading block of a complex Schur form of ``a``
    reordered with ``ztrsen`` so that it holds exactly that cluster."""
    t = scipy.linalg.schur(a, output="complex", check_finite=False)[0]
    diag = np.diagonal(t)
    blocks = []
    for value, band in clusters:
        select = _within(diag, value, band)
        sdim = int(np.count_nonzero(select))
        if sdim == 0:
            blocks.append(t[:0, :0])
            continue
        ts, _, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, t, job="N", wantq=0)
        if info != 0 or np.any(np.abs(np.diagonal(ts)[:sdim] - value) > band):
            # select and reordering disagree; should not happen
            raise NumericalError("Schur reordering failed to isolate the cluster")
        blocks.append(ts[:sdim, :sdim])
    return blocks


def _no_sort(wr: float, wi: float) -> None:
    """``dgees`` wants a selection callback even when it does not sort."""


def _real_blocks(a: np.ndarray, clusters: list[tuple[complex, float]]) -> list[np.ndarray]:
    """``_complex_blocks`` for a real ``a``, in real arithmetic.

    ``dgees`` gives the real Schur form and ``dtrsen`` moves each cluster
    to the leading block.  A 2 x 2 diagonal block moves whole, so a
    cluster holding one of a conjugate pair brings the other along; a
    complex Schur form of that small leading block then isolates the
    cluster.
    """
    gees = scipy.linalg.lapack.dgees
    lwork = int(gees(_no_sort, a, compute_v=0, lwork=-1)[-2][0])
    t, _, wr, wi, _, _, info = gees(_no_sort, a, compute_v=0, lwork=lwork)
    if info != 0:
        raise scipy.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    blocks = []
    for value, band in clusters:
        select = _within(wr + 1j * wi, value, band)
        if not select.any():
            blocks.append(t[:0, :0])
            continue
        ts, _, wr_s, wi_s, _, _, _, info = scipy.linalg.lapack.dtrsen(
            select, t, t, job="N", wantq=0)
        # dgees's own check of a sorted form: the selected eigenvalues, a
        # conjugate pair counting whole, must fill the leading block
        inside = _within(wr_s + 1j * wi_s, value, band)
        held = inside.copy()
        first = np.flatnonzero(wi_s > 0.0)
        held[first] = held[first + 1] = inside[first] | inside[first + 1]
        m = int(np.count_nonzero(held))
        if info != 0 or not held[:m].all():
            raise NumericalError("Schur reordering failed to isolate the cluster")
        if inside[:m].all():
            blocks.append(ts[:m, :m])
        else:
            blocks.extend(_complex_blocks(ts[:m, :m], [(value, band)]))
    return blocks


def cluster_multiplicities(
    a: np.ndarray, clusters: list[tuple[complex, float]], rank_factor: float = 1e4
) -> list[tuple[int, int]]:
    """Algebraic and geometric multiplicity of each eigenvalue cluster
    ``(value, band)`` of ``a``: its eigenvalues within distance ``band``
    of ``value``.

    One Schur form of ``a`` serves every cluster, real for a real ``a``
    (``dgees``) and complex otherwise (``zgees``).  Per cluster a copy of
    it is reordered with LAPACK ``trsen`` (the reordering ``gees`` runs
    for a sorted Schur form) so that the cluster fills the leading block
    of ``T = [[T11, T12], [0, T22]]``; in the real form a conjugate
    partner outside the cluster is then split off by a complex Schur form
    of T11 alone.  ``T22 - value*I`` is invertible, so the eigenspace
    dimension of the full matrix equals ``dim ker(T11 - value*I)``.
    """
    a = np.asarray(a)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("cluster multiplicities need a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    if n == 0:
        return [(0, 0)] * len(clusters)
    blocks = (_complex_blocks if np.iscomplexobj(a) else _real_blocks)(a, clusters)
    out = []
    for (value, band), block in zip(clusters, blocks):
        sdim = block.shape[0]
        if sdim == 0:
            out.append((0, 0))
            continue
        svals = scipy.linalg.svdvals(block - value * np.eye(sdim))
        # Two zero scales compete inside the block: roundoff relative to the
        # block itself, and the cluster radius (eigenvalues may sit anywhere
        # within `band` of `value` and still belong to the eigenspace at this
        # resolution).  Jordan coupling shows up as O(1) entries, far above
        # either.
        out.append((sdim, sdim - svd_rank(svals, sdim, rank_factor, 10.0 * band)))
    return out


def cluster_multiplicity(
    a: np.ndarray, value: complex, band: float, rank_factor: float = 1e4
) -> tuple[int, int]:
    """Algebraic and geometric multiplicity of the eigenvalue cluster of
    ``a`` within distance ``band`` of ``value``; the one-cluster case of
    ``cluster_multiplicities``."""
    return cluster_multiplicities(a, [(value, band)], rank_factor)[0]
