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
computes one complex Schur form per matrix and reorders a copy of it
for each cluster.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalError

__all__ = [
    "spectral_norm",
    "svd_rank",
    "numerical_rank",
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


def numerical_rank(a: np.ndarray, rank_factor: float = 1e4) -> int:
    a = np.atleast_2d(np.asarray(a))
    return svd_rank(scipy.linalg.svdvals(a), max(a.shape), rank_factor)


def kernel_basis(a: np.ndarray, rank_factor: float = 1e4, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space, shape (n, dim); the
    rank cutoff is :func:`svd_rank`'s, with the same ``floor``."""
    a = np.atleast_2d(np.asarray(a))
    _, svals, vh = scipy.linalg.svd(a)
    return vh[svd_rank(svals, max(a.shape), rank_factor, floor):].conj().T


def cluster_multiplicities(
    a: np.ndarray, clusters: list[tuple[complex, float]], rank_factor: float = 1e4
) -> list[tuple[int, int]]:
    """Algebraic and geometric multiplicity of each eigenvalue cluster
    ``(value, band)`` of ``a``: its eigenvalues within distance ``band``
    of ``value``.

    One complex Schur form A = Z T Z^H serves every cluster.  Per cluster
    a copy of T is reordered with LAPACK ``trsen`` (the reordering
    ``gees`` runs for a sorted Schur form) so that the cluster fills the
    leading block of ``T = [[T11, T12], [0, T22]]``.  Then
    ``T22 - value*I`` is invertible, so the eigenspace dimension of the
    full matrix equals ``dim ker(T11 - value*I)``.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("cluster multiplicities need a square matrix")
    t, z = scipy.linalg.schur(a, output="complex")
    diag = np.diagonal(t)
    out = []
    for value, band in clusters:
        d = diag - value  # hypot rounds like scalar abs; np.abs on arrays may not
        select = np.hypot(d.real, d.imag) <= band
        sdim = int(np.count_nonzero(select))
        if sdim == 0:
            out.append((0, 0))
            continue
        ts, _, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, z, job="N", wantq=0)
        if info != 0 or np.any(np.abs(np.diagonal(ts)[:sdim] - value) > band):
            # select and reordering disagree; should not happen
            raise NumericalError("Schur reordering failed to isolate the cluster")
        svals = scipy.linalg.svdvals(ts[:sdim, :sdim] - value * np.eye(sdim))
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
