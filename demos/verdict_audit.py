"""verdict_audit.py

Exclusion rules with their full hypothesis trails.

Each rule certifies "this delayed difference feedback cannot stabilize
the given state" only when every one of its numerically checked premises
holds; the verdict object keeps what was measured and against which
tolerance, so a verdict can be audited line by line instead of trusted
as a boolean.  Three rules run on equilibria:

  odd-number                nonsingular Jacobian with an odd count of
                            right-half-plane eigenvalues; the rightmost
                            eigenvalue is the witness root that survives
                            every gain
  commuting-real-spectrum   a resonant unstable eigenvalue plus a gain
                            that commutes with J and has real spectrum;
                            the witness rides the resonant line
  commuting-gain            commuting gain alone, via the scalar
                            reduction along a common eigenvector

and their periodic analogues run on multipliers.  An abstention is as
informative as an exclusion: the first failed hypothesis names the
premise that broke.
"""

from pyrastab import equilibrium_verdicts, ode_monodromy, periodic_verdicts
from pyrastab.benchmarks import get_case
from pyrastab.problems import EquilibriumProblem

CASES = [
    "scalar-basic",          # textbook odd-number exclusion
    "focus-resonant-inward", # resonant pair + commuting real-spectrum gain
    "focus-rotation-gain-inward",  # rotation gain: only the scalar reduction bites
    "focus-nonresonant",     # off-resonance: everything abstains
    "orbit-unstable",        # periodic analogue, multiplier beyond 1
    "orbit-neutral",         # neutral orbit: no multiplier past 1, abstain
]


def show(name: str) -> None:
    case = get_case(name)
    problem = case.problem()
    if isinstance(problem, EquilibriumProblem):
        verdicts = equilibrium_verdicts(problem)
    else:
        verdicts = periodic_verdicts(ode_monodromy(problem))
    print(f"=== {name}: {case.summary}")
    for v in verdicts:
        print(f"  {v.rule}: {v.outcome}")
        for h in v.hypotheses:
            mark = "ok " if h.passed else "no "
            line = f"    [{mark}] {h.name}"
            if h.value is not None:
                line += f"  (value {h.value:.3g}"
                if h.tolerance is not None:
                    line += f", tol {h.tolerance:.1g}"
                line += ")"
            print(line)
            if h.detail and not h.passed:
                print(f"          {h.detail}")
        if v.witness is not None:
            print(f"    witness root: {v.witness:+.6f}")
    print()


def main() -> None:
    for name in CASES:
        show(name)
    print("an 'excluded' verdict is a proof sketch with numbers filled in;")
    print("'not-excluded' only means this rule's premises failed, not that")
    print("a stabilizing gain exists.")


if __name__ == "__main__":
    main()
