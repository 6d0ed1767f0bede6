"""Shared numeric tolerances.

Every analysis routine takes an optional :class:`Tolerances` instance so a
whole pipeline can be tightened or loosened coherently.  Values marked
"relative" are multiplied by a problem-dependent scale at the point of use.
Every value is nonnegative; zero and infinity are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import InputError

__all__ = ["Tolerances", "DEFAULT"]


@dataclass(frozen=True)
class Tolerances:
    #: equilibrium residual bound for ``validate_equilibrium``
    tol_eq: float = 1e-10
    #: backward error accepted for a refined characteristic root (applied as
    #: sigma_min(Delta) <= tol_res * max(1, size of Delta's terms); see
    #: ``CharacteristicMatrix.residual``)
    tol_res: float = 1e-10
    #: half-width of the "marginal" band around the imaginary axis; roots
    #: with |Re| <= tol_axis are never counted as unstable
    tol_axis: float = 1e-9
    #: numerical-rank threshold factor: sigma <= n * eps * sigma_max * rank_factor
    rank_factor: float = 1e4
    #: relative commutator norm accepted by the commuting rules (the gain
    #: with J, with the Floquet generator B and with the periodic factor P(t))
    tol_comm: float = 1e-10
    #: relative imaginary part accepted when testing a matrix for real spectrum
    tol_spec: float = 1e-9
    #: relative tolerance for resonance membership lambda + 2*pi*n*i/T in sigma(J)
    tol_res_match: float = 1e-9
    #: cluster half-width around multiplier 1 and rank threshold inside it
    tol_one: float = 1e-6
    #: multipliers below this magnitude are discarded (spurious discretization)
    mu_floor: float = 1e-3
    #: band around the unit circle for the "on circle" multiplier count
    tol_circle: float = 1e-6
    #: relative disagreement accepted between the two DDE monodromy constructions
    tol_xcheck: float = 1e-6
    #: relative residual accepted for ||expm(B*T) - Y(T)|| after the matrix log
    tol_log: float = 1e-8
    #: relative fraction of a branch interval excluded near Hopf branch endpoints
    hopf_guard: float = 0.05
    #: largest matched root or multiplier movement accepted between
    #: neighbouring homotopy/locus samples before their gap is bisected
    step_cap: float = 0.25
    #: relative gap, as a fraction of the path's span, below which a gap
    #: that still moves too far raises a diagnostic failure
    min_step: float = 1e-6
    #: relative budget for nudging a counting rectangle off a boundary root
    tol_region: float = 1e-5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not value >= 0.0:
                raise InputError(f"{f.name} must be nonnegative, got {value}")

    def replace(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()
