"""Verdict and hypothesis records produced by the exclusion rules.

A rule excludes stabilization only when *every* one of its hypotheses is
verified numerically; each hypothesis keeps the measured value and the
tolerance it was compared against, so a verdict is an auditable record
rather than a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NumericalError

EXCLUDED = "excluded"
NOT_EXCLUDED = "not-excluded"

__all__ = ["Hypothesis", "Verdict", "EXCLUDED", "NOT_EXCLUDED"]


@dataclass(frozen=True)
class Hypothesis:
    """One checked premise: what was measured, against which tolerance."""

    name: str
    passed: bool
    detail: str = ""
    value: float | None = None
    tolerance: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": bool(self.passed)}
        if self.detail:
            out["detail"] = self.detail
        if self.value is not None:
            out["value"] = float(self.value)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        return out


@dataclass(frozen=True)
class Verdict:
    rule: str
    outcome: str
    hypotheses: tuple[Hypothesis, ...]
    witness: complex | None = None

    def __post_init__(self) -> None:
        if self.outcome not in (EXCLUDED, NOT_EXCLUDED):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        all_passed = all(h.passed for h in self.hypotheses)
        if (self.outcome == EXCLUDED) != all_passed:
            raise ValueError(
                "outcome must be 'excluded' exactly when every hypothesis holds"
            )

    @classmethod
    def from_hypotheses(
        cls,
        rule: str,
        hypotheses: tuple[Hypothesis, ...] | list[Hypothesis],
        witness: complex | Callable[[], complex | None] | None = None,
    ) -> "Verdict":
        """The hypotheses decide the outcome; the witness only corroborates an
        exclusion.  A callable witness is called only when every hypothesis
        holds, and one that raises NumericalError (a non-finite root) is left out."""
        hyps = tuple(hypotheses)
        if not all(h.passed for h in hyps):
            return cls(rule, NOT_EXCLUDED, hyps)
        try:
            return cls(rule, EXCLUDED, hyps, witness() if callable(witness) else witness)
        except NumericalError:  # a non-finite witness
            return cls(rule, EXCLUDED, hyps)

    @property
    def excluded(self) -> bool:
        return self.outcome == EXCLUDED

    def to_dict(self) -> dict:
        out: dict = {
            "rule": self.rule,
            "outcome": self.outcome,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
        }
        if self.witness is not None:
            out["witness"] = {
                "re": float(self.witness.real),
                "im": float(self.witness.imag),
            }
        return out
