"""Command-line front end: problem files in, verdicts and plot data out.

Exit codes: 0 = analysis completed (a negative verdict is still a
completed analysis), 2 = input error, 3 = numerical failure.  Verdicts
are data inside the JSON envelope, never exit codes; automation should
read the envelope.  All file output is atomic.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Optional

import numpy as np

from . import reports
from .benchmarks import CATALOG, get_case
from .equilibria import (
    GainPath,
    Region,
    characteristic_matrix,
    default_region,
    eigenvalue_locus,
    equilibrium_verdicts,
    find_roots,
    hopf_curves,
)
from .errors import InconclusiveMultiplicityError, InputError, NumericalError
from .periodic import (
    check_determining_invariance,
    multipliers,
    ode_monodromy,
    periodic_verdicts,
)
from .problemio import document_digest, read_problem_file
from .problems import EquilibriumProblem, validate_equilibrium
from .simulate import growth_rate, integrate, perturbed_history
from .tolerances import DEFAULT

__all__ = ["main"]


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        reports.atomic_write_text(out, text)


def _region(args) -> Optional[Region]:
    values = getattr(args, "region", None)
    return None if values is None else Region(*values)


# ---------------------------------------------------------------------------
# analyze


def _analyze_equilibrium(problem, tol, region):
    cm = characteristic_matrix(problem)
    spectrum = find_roots(cm, region=region, tol=tol)
    verdicts = equilibrium_verdicts(problem, tol)
    return {
        "kind": "equilibrium",
        "equilibrium_residual": validate_equilibrium(problem),
        "spectrum": spectrum,
        "verdicts": verdicts,
    }, spectrum, None


def _analyze_periodic(problem, tol, nodes):
    mono = ode_monodromy(problem)
    report = multipliers(mono, tol)
    verdicts = periodic_verdicts(mono, tol)
    # the report and the verdicts do not depend on the determining check,
    # so its refusal to decide is reported beside them
    try:
        inv = check_determining_invariance(problem, nodes=nodes, tol=tol, monodromy=mono)
    except InconclusiveMultiplicityError as err:
        determining = {"nodes": nodes, "refused": str(err)}
    else:
        determining = {
            "g_ode": inv.g_ode,
            "g_dde": inv.g_dde,
            "g_dde_refined": inv.g_dde_refined,
            "equal": inv.equal,
            "nodes": nodes,
        }
    return {
        "kind": "periodic-linear",
        "multipliers": report,
        "determining": determining,
        "verdicts": verdicts,
    }, None, report


def cmd_analyze(args) -> int:
    if args.csv and args.out is None:
        raise InputError("--csv needs --out to derive the table path")
    started = time.perf_counter()
    doc, problem = read_problem_file(args.problem)
    tol = doc.tolerances
    region = _region(args) or doc.region
    if isinstance(problem, EquilibriumProblem):
        results, spectrum, mult = _analyze_equilibrium(problem, tol, region)
    else:
        results, spectrum, mult = _analyze_periodic(problem, tol, args.nodes)
    env = reports.envelope(doc.digest, results, tol, time.perf_counter() - started)
    _emit(reports.dump_json(env), args.out)
    if args.csv:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        if spectrum is not None:
            header, rows = reports.spectrum_table(spectrum)
        else:
            header, rows = reports.multiplier_table(mult)
        reports.write_csv(stem + ".csv", header, rows)
    return 0


# ---------------------------------------------------------------------------
# hopf


# most hopf samples over all branches: each is built up front, about 0.45 KB with its row
_MAX_HOPF_SAMPLES = 10**5


def cmd_hopf(args) -> int:
    started = time.perf_counter()
    if len(args.branches) * args.samples > _MAX_HOPF_SAMPLES:
        raise InputError(f"hopf: branches x samples must be at most {_MAX_HOPF_SAMPLES}")
    family = hopf_curves(args.rate, args.delay, tuple(args.branches), args.samples)
    header, rows = reports.hopf_table(family)
    if args.json:
        results = {
            "rate": args.rate,
            "delay": args.delay,
            "columns": list(header),
            "rows": [list(r) for r in rows],
        }
        digest = document_digest(
            {"hopf": {"rate": args.rate, "delay": args.delay,
                      "branches": list(args.branches), "samples": args.samples}}
        )
        env = reports.envelope(digest, results, DEFAULT, time.perf_counter() - started)
        _emit(reports.dump_json(env), args.out)
    else:
        _emit(reports.render_csv(header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# locus


# most samples one locus path may hold: every gain is built up front, one
# complex n x n matrix per sample, and each sample takes a root search
_MAX_SAMPLES = 10**4


def parse_path_spec(spec: str, dimension: int) -> GainPath:
    """Gain paths for root-locus sweeps.

    real:a:b:n    K(s) = s I          for s in [a, b]
    imag:a:b:n    K(s) = i s I        (complex gain, scalar reduction)
    ray:t:r0:r1:n K(s) = s e^{it} I   for s in [r0, r1]

    A count n above ``_MAX_SAMPLES`` is refused before any gain is built.
    """
    parts = spec.split(":")
    if not parts or parts[0] not in ("real", "imag", "ray"):
        raise InputError("path spec must start with real:, imag: or ray:")
    want = 4 if parts[0] in ("real", "imag") else 5
    if len(parts) != want:
        raise InputError(f"path spec {parts[0]!r} takes {want - 1} arguments")
    try:
        nums = [float(p) for p in parts[1:-1]]
        count = int(parts[-1])
    except ValueError:
        raise InputError(f"path spec {spec!r}: arguments must be numbers") from None
    if not all(math.isfinite(x) for x in nums):
        raise InputError(f"path spec {spec!r}: numbers must be finite")
    if count < 1:
        raise InputError("path spec: sample count must be at least 1")
    if count > _MAX_SAMPLES:
        raise InputError(f"path spec: sample count must be at most {_MAX_SAMPLES}")
    if parts[0] == "ray":
        theta, lo, hi = nums
        direction = complex(math.cos(theta), math.sin(theta))
    else:
        lo, hi = nums
        direction = 1j if parts[0] == "imag" else 1.0 + 0j
    if count == 1:
        # zero-length path: duplicate the single sample over a token interval
        svals = [lo, lo + max(1.0, abs(lo)) * 1e-9]
    else:
        if not hi > lo:
            raise InputError("path spec: upper end must exceed lower end")
        svals = np.linspace(lo, hi, count).tolist()
    eye = np.eye(dimension)
    gains = [s * direction * eye for s in svals]
    return GainPath.from_gains(svals, gains)


def cmd_locus(args) -> int:
    started = time.perf_counter()
    doc, problem = read_problem_file(args.problem)
    if not isinstance(problem, EquilibriumProblem):
        raise InputError("locus sweeps apply to equilibrium problems")
    tol = doc.tolerances
    path = parse_path_spec(args.path, problem.feedback.dimension)
    region = _region(args) or doc.region
    result = eigenvalue_locus(problem.jacobian(), problem.feedback.delay, path,
                              region=region, tol=tol)
    header, rows = reports.locus_table(result)
    if args.json:
        results = {
            "path": args.path,
            "columns": list(header),
            "rows": [list(r) for r in rows],
            "counts": [
                {"s": s, "unstable_count": rep.unstable_count()}
                for s, rep in result.samples
            ],
        }
        env = reports.envelope(doc.digest, results, tol, time.perf_counter() - started)
        _emit(reports.dump_json(env), args.out)
    else:
        _emit(reports.render_csv(header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate

# half-width of the uniform history perturbation around the equilibrium
_AMPLITUDE = 1e-6


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    doc, problem = read_problem_file(args.problem)
    if not isinstance(problem, EquilibriumProblem):
        raise InputError("simulate applies to equilibrium problems; periodic "
                         "linear dynamics are covered by the spectral pipeline")
    tol = doc.tolerances
    delay = problem.feedback.delay
    if not args.horizon > 0.0:
        raise InputError("--horizon must be positive")
    horizon = args.horizon * delay
    history = perturbed_history(problem.point, delay, _AMPLITUDE, seed=args.seed)
    trajectory = integrate(problem.field, problem.feedback, history, horizon, dt=args.dt)

    span = trajectory.times[-1] - trajectory.times[0]
    fitted: Optional[float] = None
    try:
        fitted = growth_rate(trajectory, span / 3.0, problem.point)
    except InputError:  # a run too short for two tail samples has no slope
        pass
    underflow = fitted is not None and math.isinf(fitted)
    rate = None if underflow else fitted

    # unstable_count and dominant_root read only the roots right of the axis
    # band, so the default window is searched alone: the marginal roots that
    # find_roots would add from a band search are never reported here
    cm = characteristic_matrix(problem)
    spectrum = find_roots(cm, default_region(cm, tol), tol)
    unstable = spectrum.unstable_count()
    predicted_unstable = unstable > 0
    observed_unstable = trajectory.blown_at is not None or (rate is not None and rate > 0.0)
    dominant = spectrum.dominant
    results = {
        "kind": "simulation",
        "seed": args.seed,
        "horizon": horizon,
        "dt": trajectory.times[1] - trajectory.times[0] if len(trajectory) > 1 else None,
        "amplitude": _AMPLITUDE,
        "growth_rate": rate,
        "underflow": underflow,
        "blown_at": trajectory.blown_at,
        "unstable_count": unstable,
        "dominant_root": dominant.value if dominant is not None else None,
        "consistent": predicted_unstable == observed_unstable,
    }
    env = reports.envelope(doc.digest, results, tol, time.perf_counter() - started)
    sys.stdout.write(reports.dump_json(env))
    if args.out is not None:
        header, rows = reports.trajectory_table(trajectory)
        reports.write_csv(args.out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args) -> int:
    if args.name is None:
        listing = []
        for case in CATALOG:
            doc = case.document()
            listing.append({
                "name": case.name,
                "summary": case.summary,
                "kind": doc["kind"],
                "digest": document_digest(doc),
            })
        _emit(reports.dump_json(listing), args.out)
        return 0
    try:
        case = get_case(args.name)
    except KeyError as err:
        raise InputError(err.args[0]) from None
    _emit(reports.dump_json(case.document()), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrastab",
        description="Spectral verdicts and simulations for delayed-feedback problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, region=True):
        p.add_argument("--out", help="write the primary output to this file")
        if region:
            p.add_argument("--region", type=float, nargs=3,
                           metavar=("RE_MIN", "RE_MAX", "IM_MAX"),
                           help="root-counting rectangle override")

    p = sub.add_parser("analyze", help="verdicts plus spectra for a problem file")
    p.add_argument("problem", help="problem document (JSON)")
    p.add_argument("--nodes", type=int, default=32,
                   help="history collocation nodes for the delay monodromy")
    p.add_argument("--csv", action="store_true",
                   help="also write the spectrum/multiplier table next to --out")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("hopf", help="critical-gain curves for the scalar problem")
    p.add_argument("rate", type=float, help="unstable rate of the open-loop scalar problem")
    p.add_argument("delay", type=float, help="feedback delay")
    p.add_argument("--branches", type=int, nargs="*", default=[0, 1, 2])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--json", action="store_true", help="wrap the table in a JSON envelope")
    add_common(p, region=False)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("locus", help="root traces along a gain path")
    p.add_argument("problem", help="problem document (JSON)")
    p.add_argument("path", help="real:a:b:n | imag:a:b:n | ray:theta:r0:r1:n")
    p.add_argument("--json", action="store_true", help="wrap the table in a JSON envelope")
    add_common(p)
    p.set_defaults(func=cmd_locus)

    p = sub.add_parser("simulate", help="time-domain run from a random perturbation")
    p.add_argument("problem", help="problem document (JSON)")
    p.add_argument("--horizon", type=float, default=40.0,
                   help="integration span in units of the delay (default 40)")
    p.add_argument("--dt", type=float, help="step size (default delay/64)")
    p.add_argument("--seed", type=int, default=0, help="perturbation seed")
    add_common(p, region=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("catalog", help="dump benchmark problems")
    p.add_argument("name", nargs="?", help="case name; omit to list all")
    p.add_argument("--out", help="write the output to this file")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
