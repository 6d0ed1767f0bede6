"""field_expressions.py

The expression front end: parse once, evaluate and differentiate exactly.

Autonomous vector fields f(x) enter as one source string per component
over the variables x1..xN and named parameters.  Parsing builds a small syntax
tree; evaluation and forward-mode differentiation walk the same tree, so
the Jacobian is exact (no finite-difference step to choose) and the
printer emits a canonical form that re-parses to the identical tree --
files round-trip byte for byte.

The demo builds a damped pendulum with a torque parameter, finds its
linearization at the hanging and inverted states, and checks the
forward-mode Jacobian against central differences at a random point.
"""

import numpy as np

from pyrastab import DelayFeedback, EquilibriumProblem, parse_field

SOURCES = ("x2", "-sin(x1) - b*x2")
PARAMS = {"b": 0.2}


def main() -> None:
    field = parse_field(SOURCES, PARAMS)
    print("components as parsed (canonical print):")
    for i, src in enumerate(field.source_strings(), start=1):
        print(f"  x{i}' = {src}")
    print()

    feedback = DelayFeedback(0.1 * np.eye(2), 2.0 * np.pi)
    for label, point in (("hanging", [0.0, 0.0]), ("inverted", [np.pi, 0.0])):
        problem = EquilibriumProblem(field, np.array(point), feedback)
        jac = problem.jacobian()
        eigs = np.linalg.eigvals(jac)
        print(f"{label} state {point}: residual |f| = "
              f"{np.linalg.norm(field(problem.point)):.1e}")
        print(f"  J = {jac[0]}; {jac[1]}")
        print(f"  eigenvalues {np.sort_complex(eigs)}")
    print()

    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=2)
    jac = field.jacobian(x)
    fd = np.empty_like(jac)
    for i in range(2):
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[:, i] = (field(xp) - field(xm)) / (2.0 * h)
    print(f"forward-mode vs central differences at x = {x}:")
    print(f"  max entry gap {np.max(np.abs(jac - fd)):.2e} "
          "(limited by the difference step, not the tree walk)")
    print()

    # canonical print is a fixpoint: parse(print(tree)) == tree
    reparsed = parse_field(field.source_strings(), PARAMS)
    print("print/parse round trip identical:",
          reparsed.source_strings() == field.source_strings())


if __name__ == "__main__":
    main()
