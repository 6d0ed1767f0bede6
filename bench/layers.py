"""What the traced run instruments, and how spans become per-layer metrics.

Layers are the package's modules.  Span names are ``module.function``;
functions called tens of thousands of times per operation are counted,
not spanned, and their time stays in the caller's self time.
"""

from __future__ import annotations

import inspect

from pyrastab import (
    chebyshev,
    cli,
    equilibria,
    linalg,
    periodic,
    problemio,
    problems,
    reports,
    rootfinding,
    simulate,
)


def _dde_note(tracer, args, kwargs, result, err):
    bound = _DDE_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    if result is not None:
        tracer.note_max("periodic.dde_monodromy.gap", result.cross_residual)
    return f"n{bound.arguments['nodes']}"


def _det_batch_note(tracer, args, kwargs, result, err):
    tracer.counts["equilibria.det_batch.points"] += len(args[1])


def _winding_note(tracer, args, kwargs, result, err):
    if isinstance(err, rootfinding.BoundaryRootError):
        tracer.counts["rootfinding.winding_count.boundary_errors"] += 1


def _rect_note(tracer, args, kwargs, result, err):
    if result is not None:
        tracer.counts["rootfinding.find_roots_rect.multiplicity"] += sum(m for _, m in result)


def _integrate_note(tracer, args, kwargs, result, err):
    if result is not None:
        tracer.counts["simulate.integrate.steps"] += len(result) - 1


def _locus_note(tracer, args, kwargs, result, err):
    if result is not None:
        tracer.counts["equilibria.eigenvalue_locus.samples"] += len(result.samples)


_DDE_SIGNATURE = inspect.signature(periodic.dde_monodromy)

FUNCTIONS = (
    (cli, "main", "cli.main", "span", None),
    (problemio, "read_problem_file", "problemio.read_problem_file", "span", None),
    (reports, "dump_json", "reports.dump_json", "span", None),
    (periodic, "dde_monodromy", "periodic.dde_monodromy", "span", _dde_note),
    (periodic, "ode_monodromy", "periodic.ode_monodromy", "span", None),
    (periodic, "multipliers", "periodic.multipliers", "span", None),
    (periodic, "floquet_decompose", "periodic.floquet_decompose", "span", None),
    (periodic, "periodic_verdicts", "periodic.periodic_verdicts", "span", None),
    (periodic, "check_determining_invariance", "periodic.check_determining_invariance",
     "span", None),
    (chebyshev, "interp_row", "chebyshev.interp_row", "count", None),
    (linalg, "cluster_multiplicity", "linalg.cluster_multiplicity", "span", None),
    (equilibria, "find_roots", "equilibria.find_roots", "span", None),
    (equilibria, "count_roots", "equilibria.count_roots", "span", None),
    (equilibria, "eigenvalue_locus", "equilibria.eigenvalue_locus", "span", _locus_note),
    (equilibria, "equilibrium_verdicts", "equilibria.equilibrium_verdicts", "span", None),
    (rootfinding, "winding_count", "rootfinding.winding_count", "span", _winding_note),
    (rootfinding, "find_roots_rect", "rootfinding.find_roots_rect", "span", _rect_note),
    (simulate, "integrate", "simulate.integrate", "span", _integrate_note),
    (simulate, "growth_rate", "simulate.growth_rate", "span", None),
)

METHODS = (
    (problems.PeriodicLinearProblem, "coefficient_at", "problems.coefficient_at", "count", None),
    (equilibria.CharacteristicMatrix, "det_batch", "equilibria.det_batch", "span",
     _det_batch_note),
    (equilibria.CharacteristicMatrix, "dlog", "equilibria.dlog", "count", None),
)

_SPANNED = [name for *_, name, mode, _note in FUNCTIONS + METHODS if mode == "span"]
_COUNTED = [name for *_, name, mode, _note in FUNCTIONS + METHODS if mode == "count"]
_EXTRA_COUNTS = (
    "equilibria.det_batch.points",
    "equilibria.eigenvalue_locus.samples",
    "rootfinding.winding_count.boundary_errors",
    "simulate.integrate.steps",
)
NODE_COUNTS = (32, 64, 128)


def per_layer(tracer, passes: int) -> dict:
    """Per-pass layer metrics from the traced passes."""
    calls, self_s = tracer.layer_totals()
    out = {}
    for name in _SPANNED:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.s"] = self_s[name] / passes
    for nodes in NODE_COUNTS:
        key = f"periodic.dde_monodromy.n{nodes}"
        out[f"{key}.s"] = self_s[key] / passes
    for name in _COUNTED:
        out[f"{name}.calls"] = tracer.counts[name] / passes
    for name in _EXTRA_COUNTS:
        out[name] = tracer.counts[name] / passes
    out["periodic.dde_monodromy.gap.max"] = tracer.maxima.get("periodic.dde_monodromy.gap", 0.0)
    dlogs = tracer.counts["equilibria.dlog"]
    roots = tracer.counts["rootfinding.find_roots_rect.multiplicity"]
    out["rootfinding.roots_per_dlog"] = roots / dlogs if dlogs else 0.0
    return out
