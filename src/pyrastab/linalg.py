"""Small dense linear-algebra helpers shared by the spectral modules.

Every rank decision in the package goes through one rule, ``svd_rank``:
the count of singular values above max(n eps sigma_max rank_factor,
floor).  Callers differ only in the floor: 0 for a plain rank,
tol_res max(1, sigma_max) for a characteristic root, 10 band for an
eigenvalue cluster of radius band, and n eps rank_factor max(1, ||J||)
for an eigenspace of J, whose shifted matrix may be rounding noise.
Multiplicity of a cluster goes through an ordered Schur form, so that
the answer survives non-normality (raw singular-value thresholds
against a badly scaled matrix do not); a ``SchurForm`` is computed once
per matrix, real for a real matrix, gives its eigenvalues, and reorders
a copy of itself for each cluster.

The dimension of one kernel needs no Schur form when the matrix splits
into an invertible A11 and a small trailing A22: dim ker [[A11, A12],
[A21, A22]] = dim ker S, S = A22 - A21 A11^-1 A12, since a kernel vector
(v1, v2) has v1 = -A11^-1 A12 v2.  ``schur_complement`` gives S from one LU
of A11, with LAPACK's estimate of 1 / ||A11^-1||_1.  The delay monodromy's
multiplicity at 1 (``periodic``) is the n x n S of M - I, split before the
n columns of phi(0).  No kernel vector is lost: one with phi(0) = 0 would
be a periodic solution vanishing at t = 0, which is zero.  S is the ODE's
Y(T) - I up to the discretization, so its rank rule has the floor tol_one,
the radius the ODE's Schur rule counts within.  Guard rails: an A11 whose
estimate falls below a fixed absolute floor raises NumericalError, and a
singular value of S between 10 tol_one and a fixed multiple of it raises
InconclusiveMultiplicityError.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalError

__all__ = [
    "spectral_norm",
    "relative_gap_bound",
    "svd_rank",
    "kernel_basis",
    "schur_complement",
    "SchurForm",
    "cluster_multiplicity",
]


def spectral_norm(a: np.ndarray) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def relative_gap_bound(a: np.ndarray, b: np.ndarray) -> float:
    """An upper bound on ||a - b||_2 / max(1, ||a||_2) from O(N^2) norms,
    never below that ratio (up to rounding) and without an SVD.

    With D = a - b, ||D||_2 <= min(||D||_F, sqrt(||D||_1 ||D||_inf)), and
    ||a||_2 is at least the largest column norm max_j ||a e_j||_2.  A
    rank-1 D makes the Frobenius bound exact."""
    a = np.asarray(a)
    d = a - np.asarray(b)
    if d.size == 0:
        return 0.0
    upper = min(np.linalg.norm(d), np.sqrt(np.linalg.norm(d, 1) * np.linalg.norm(d, np.inf)))
    lower = np.max(np.linalg.norm(a, axis=0))
    return float(upper / max(1.0, lower))


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


def schur_complement(a: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """The Schur complement S = A22 - A21 A11^-1 A12 of the square ``a``
    split before its last ``k`` rows and columns (A22 is k x k), and an
    estimate of 1 / ||A11^-1||_1, the 1-norm distance from A11 to the
    singular matrices.

    One LU of A11 (LAPACK ``getrf``) serves the k solves (``getrs``) and the
    estimate, rcond ||A11||_1 from ``gecon``.  A matrix that is not finite,
    or an exactly zero pivot, raises NumericalError; how close to singular
    A11 may come is for the caller to judge from the estimate.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not 0 <= k <= a.shape[0]:
        raise ValueError("a Schur complement needs a square matrix and 0 <= k <= its size")
    m = a.shape[0] - k
    if not np.isfinite(a).all():
        raise NumericalError("a Schur complement needs a finite matrix")
    if m == 0:
        return a.copy(), np.inf
    a11 = np.array(a[:m, :m], order="F")
    getrf, gecon, getrs = scipy.linalg.lapack.get_lapack_funcs(("getrf", "gecon", "getrs"),
                                                               (a11,))
    anorm = np.linalg.norm(a11, 1)
    lu, piv, info = getrf(a11, overwrite_a=True)
    if info != 0:
        raise NumericalError("the leading block of the Schur complement is singular")
    rcond, _ = gecon(lu, anorm, norm="1")
    x, _ = getrs(lu, piv, a[:m, m:])
    return a[m:, m:] - a[m:, :m] @ x, float(rcond * anorm)


def _within(eigs: np.ndarray, value: complex, band: float) -> np.ndarray:
    """Which of ``eigs`` lie within distance ``band`` of ``value``."""
    d = eigs - value  # hypot rounds like scalar abs; np.abs on arrays may not
    return np.hypot(d.real, d.imag) <= band


def _no_sort(wr: float, wi: float) -> None:
    """``dgees`` wants a selection callback even when it does not sort."""


def _complex_block(t: np.ndarray, value: complex, band: float) -> np.ndarray:
    """The leading block of the complex Schur form ``t`` reordered with
    ``ztrsen`` so that it holds exactly the cluster."""
    select = _within(np.diagonal(t), value, band)
    sdim = int(np.count_nonzero(select))
    if sdim == 0:
        return t[:0, :0]
    ts, _, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, t, job="N", wantq=0)
    if info != 0 or np.any(np.abs(np.diagonal(ts)[:sdim] - value) > band):
        # select and reordering disagree; should not happen
        raise NumericalError("Schur reordering failed to isolate the cluster")
    return ts[:sdim, :sdim]


def _real_block(t: np.ndarray, eigs: np.ndarray, value: complex, band: float) -> np.ndarray:
    """``_complex_block`` for the real Schur form ``t`` with eigenvalues
    ``eigs``, in real arithmetic.

    ``dtrsen`` moves the cluster to the leading block.  A 2 x 2 diagonal
    block moves whole, so a cluster holding one of a conjugate pair brings
    the other along; a complex Schur form of that small leading block then
    isolates the cluster.
    """
    select = _within(eigs, value, band)
    if not select.any():
        return t[:0, :0]
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
        return ts[:m, :m]
    small = scipy.linalg.schur(ts[:m, :m], output="complex", check_finite=False)[0]
    return _complex_block(small, value, band)


class SchurForm:
    """One Schur form of a square matrix and its eigenvalues.

    Real (``dgees``, without Schur vectors) for a real matrix, whose
    eigenvalues are then the ``wr + i wi`` of its 1 x 1 and 2 x 2 diagonal
    blocks, and complex (``zgees``) otherwise, whose eigenvalues are its
    diagonal.  ``multiplicities`` reorders a copy of it per cluster, so one
    factorisation gives both a spectrum and the multiplicities of any
    clusters chosen from it.
    """

    def __init__(self, a: np.ndarray) -> None:
        a = np.asarray(a)
        a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("a Schur form needs a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
        if n == 0:
            self.t, self.eigenvalues = a, np.zeros(0, dtype=complex)
        elif np.iscomplexobj(a):
            self.t = scipy.linalg.schur(a, output="complex", check_finite=False)[0]
            self.eigenvalues = np.diagonal(self.t)
        else:
            gees = scipy.linalg.lapack.dgees
            lwork = int(gees(_no_sort, a, compute_v=0, lwork=-1)[-2][0])
            t, _, wr, wi, _, _, info = gees(_no_sort, a, compute_v=0, lwork=lwork)
            if info != 0:
                raise scipy.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
            self.t, self.eigenvalues = t, wr + 1j * wi

    def multiplicities(
        self, clusters: list[tuple[complex, float]], rank_factor: float = 1e4
    ) -> list[tuple[int, int]]:
        """Algebraic and geometric multiplicity of each eigenvalue cluster
        ``(value, band)``: the eigenvalues within distance ``band`` of
        ``value``.

        Per cluster a copy of the form is reordered with LAPACK ``trsen``
        (the reordering ``gees`` runs for a sorted Schur form) so that the
        cluster fills the leading block of ``T = [[T11, T12], [0, T22]]``;
        in the real form a conjugate partner outside the cluster is then
        split off by a complex Schur form of T11 alone.  ``T22 - value*I``
        is invertible, so the eigenspace dimension of the matrix equals
        ``dim ker(T11 - value*I)``.
        """
        out = []
        for value, band in clusters:
            if np.iscomplexobj(self.t):
                block = _complex_block(self.t, value, band)
            else:
                block = _real_block(self.t, self.eigenvalues, value, band)
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
    ``SchurForm.multiplicities``."""
    return SchurForm(a).multiplicities([(value, band)], rank_factor)[0]
