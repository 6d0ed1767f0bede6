"""delay_spectrum.py

Two independent spectra of one delayed-feedback system, and the center
dimension the feedback cannot touch.

For x'(t) = a x(t) + k [x(t) - x(t - T)] the right-half-plane behavior
is captured two ways:

  * characteristic roots: zeros of Delta(lambda) = lambda - a
    - k (1 - exp(-lambda T)), counted by the argument principle inside a
    rectangle and certified by winding numbers;

  * Floquet multipliers of the time-T solution operator, obtained by
    collocating histories on a Chebyshev grid and pushing the basis
    through the equation -- built twice (variation-of-constants integral
    vs Chebyshev collocation of the delay equation) with the gap between
    the constructions reported.

Viewing the autonomous equation as T-periodic, every multiplier above
the discretization floor must equal exp(lambda * T) for a certified
root; the table below shows that match.  The last section repeats the
exercise on a genuinely periodic system with a two-dimensional center:
the geometric multiplicity of multiplier 1 is the same with the feedback
switched off, on, or doubled -- the invariance that makes the center
"determining".
"""

import numpy as np

from pyrastab import (
    DEFAULT,
    CharacteristicMatrix,
    ConstantCoefficient,
    DelayFeedback,
    PeriodicLinearProblem,
    Region,
    check_determining_invariance,
    dde_monodromy,
    find_roots,
    multipliers,
)
from pyrastab.benchmarks import get_case

A = 0.05
K = 0.3
DELAY = 2.0 * np.pi
FLOOR = 0.1


def main() -> None:
    cm = CharacteristicMatrix(np.array([[A]]), np.array([[K]]), DELAY)

    # region deep enough that every multiplier above FLOOR has its root inside
    re_min = np.log(FLOOR) / DELAY - 0.05
    spectrum = find_roots(cm, Region(re_min, 1.5, 8.0))
    print(f"x' = {A} x + {K} [x(t) - x(t - {DELAY:.4f})]")
    print()
    print("certified characteristic roots (alg = algebraic multiplicity):")
    for root in spectrum.all_roots:
        z = root.value
        print(f"  {z.real:+10.6f} {z.imag:+10.6f}i   alg {root.algebraic}"
              f"   residual {root.residual:.1e}")
    print()

    # the same equation viewed as T-periodic (constant coefficient,
    # period = delay) feeds the operator route
    problem = PeriodicLinearProblem(
        ConstantCoefficient(np.array([[A]])),
        DELAY,
        DelayFeedback(np.array([[K]]), DELAY),
    )
    dde = dde_monodromy(problem, nodes=48)
    print(f"delay monodromy on {dde.n_nodes} nodes, "
          f"integral-vs-collocation gap {dde.cross_residual:.1e}")
    report = multipliers(dde, DEFAULT.replace(mu_floor=FLOOR))
    print()
    print(f"multipliers above {FLOOR} vs exp(root * T):")
    targets = [(np.exp(r.value * DELAY), r.value) for r in spectrum.all_roots]
    for entry in report.entries:
        mu_hat, root = min(targets, key=lambda t: abs(t[0] - entry.value))
        print(f"  mu = {entry.value:+.6f}   exp(root T) = {mu_hat:+.6f}"
              f"   gap {abs(entry.value - mu_hat):.1e}")
    print()

    inv = check_determining_invariance(get_case("center-periodic").problem(), nodes=32)
    print("determining center of the periodic benchmark (multiplier-1 eigenspace):")
    print(f"  geometric multiplicity, feedback off:       {inv.g_ode}")
    print(f"  geometric multiplicity, feedback on:        {inv.g_dde}")
    print(f"  same on a doubled grid:                     {inv.g_dde_refined}")
    print(f"  invariant: {inv.equal}")


if __name__ == "__main__":
    main()
