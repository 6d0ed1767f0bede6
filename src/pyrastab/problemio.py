"""Problem documents: a small JSON schema for delay-feedback problems.

A document describes either an equilibrium problem (nonlinear field,
point, gain, delay) or a periodic linear problem (coefficient, period,
gain, delay equal to the period).  Validation happens before any
numerics and reports the JSON path of the offending entry, e.g.
``$.field.expressions[2]``; unknown keys are rejected rather than
ignored.  Documents are digested by hashing their canonical JSON form,
which makes report envelopes traceable to their exact input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .benchmarks import builtin_field
from .equilibria import Region
from .errors import InputError
from .expressions import DomainError
from .fields import (
    ConstantCoefficient,
    ExpressionField,
    LinearField,
    TrigCoefficient,
    parse_field,
)
from .problems import (
    DelayFeedback,
    EquilibriumProblem,
    PeriodicLinearProblem,
    positive_finite,
    validate_equilibrium,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ProblemDocument",
    "parse_document",
    "build_problem",
    "load_problem",
    "read_problem_file",
    "describe_problem",
    "document_digest",
]

_KINDS = ("equilibrium", "periodic-linear")
_TOP_KEYS = {
    "kind", "dimension", "field", "point", "period", "gain", "delay",
    "tolerances", "region", "name",
}
_TOL_KEYS = {f.name for f in dataclasses.fields(Tolerances)}
_COEFFICIENT_SAMPLES = 128


@dataclass(frozen=True)
class ProblemDocument:
    """A validated problem description plus the raw mapping it came from."""

    kind: str
    dimension: int
    field: object
    gain: np.ndarray
    delay: float
    point: Optional[np.ndarray]
    period: Optional[float]
    tolerances: Tolerances
    region: Optional[Region]
    name: Optional[str]
    raw: dict

    @property
    def digest(self) -> str:
        return document_digest(self.raw)


# ---------------------------------------------------------------------------
# low-level checks, each reporting the JSON path of the failure


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number, got {type(value).__name__}")
    out = float(value)
    if not np.isfinite(out):
        raise InputError(f"{path}: number must be finite")
    return out


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _require_string(value, path: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _numbers(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """``value`` as a float array when it is nested lists of exactly
    ``shape`` holding finite plain numbers (int or float, not bool), in one
    pass that builds no path; None otherwise, and the caller reruns its
    per-element checks, which name the first fault."""

    def regular(v, dims) -> bool:
        if not isinstance(v, list) or len(v) != dims[0]:
            return False
        if len(dims) == 1:
            return all(type(x) is float or type(x) is int for x in v)
        return all(regular(x, dims[1:]) for x in v)

    if not regular(value, shape):
        return None
    try:
        out = np.array(value, dtype=float)
    except OverflowError:  # an int beyond the double range
        return None
    return out if np.all(np.isfinite(out)) else None


def _require_vector(value, n: int, path: str) -> np.ndarray:
    out = _numbers(value, (n,))
    if out is not None:
        return out
    if not isinstance(value, list) or len(value) != n:
        raise InputError(f"{path}: expected a list of {n} numbers")
    return np.array([_require_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _require_matrix(value, n: int, path: str) -> np.ndarray:
    out = _numbers(value, (n, n))
    if out is not None:
        return out
    if not isinstance(value, list) or len(value) != n:
        raise InputError(f"{path}: expected {n} rows")
    return np.vstack([_require_vector(row, n, f"{path}[{i}]") for i, row in enumerate(value)])


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise InputError(f"{path}.{key}: unknown key")


# ---------------------------------------------------------------------------
# document parsing


def _parse_field(spec, kind: str, dimension: int, path: str):
    spec = _require_mapping(spec, path)
    variants = {"expressions", "matrix", "matrix-samples", "builtin", "params"}
    _reject_unknown(spec, variants, path)
    chosen = [k for k in ("expressions", "matrix", "matrix-samples", "builtin") if k in spec]
    if len(chosen) != 1:
        raise InputError(
            f"{path}: exactly one of expressions, matrix, matrix-samples, builtin required"
        )
    variant = chosen[0]
    if "params" in spec and variant != "expressions":
        raise InputError(f"{path}.params: only valid with expressions")
    if kind == "equilibrium" and variant == "matrix-samples":
        raise InputError(f"{path}.matrix-samples: only valid for periodic-linear problems")
    if kind == "periodic-linear" and variant in ("expressions", "builtin"):
        raise InputError(f"{path}.{variant}: only valid for equilibrium problems")

    if variant == "expressions":
        exprs = spec["expressions"]
        if not isinstance(exprs, list) or len(exprs) != dimension:
            raise InputError(f"{path}.expressions: expected a list of {dimension} strings")
        for i, src in enumerate(exprs):
            _require_string(src, f"{path}.expressions[{i}]")
        params = {}
        if "params" in spec:
            pm = _require_mapping(spec["params"], f"{path}.params")
            for key, val in pm.items():
                params[key] = _require_number(val, f"{path}.params.{key}")
        try:
            return parse_field(exprs, params)
        except InputError as err:  # it names expressions[i] or params.<name>
            raise InputError(f"{path}.{err}") from None
    if variant == "matrix":
        mat = _require_matrix(spec["matrix"], dimension, f"{path}.matrix")
        return LinearField(mat) if kind == "equilibrium" else ConstantCoefficient(mat)
    if variant == "matrix-samples":
        rows = spec["matrix-samples"]
        if not isinstance(rows, list) or len(rows) < 4:
            raise InputError(f"{path}.matrix-samples: expected at least 4 sample matrices")
        samples = _numbers(rows, (len(rows), dimension, dimension))
        if samples is not None:
            return samples
        return np.array(
            [_require_matrix(s, dimension, f"{path}.matrix-samples[{i}]")
             for i, s in enumerate(rows)]
        )
    name = _require_string(spec["builtin"], f"{path}.builtin")
    try:
        dim, field = builtin_field(name)
    except KeyError as err:
        raise InputError(f"{path}.builtin: {err.args[0]}") from None
    if dim != dimension:
        raise InputError(
            f"{path}.builtin: field {name!r} has dimension {dim}, document says {dimension}"
        )
    return field


def parse_document(obj) -> ProblemDocument:
    """Validate a raw mapping into a ProblemDocument that carries the built
    field or coefficient; no numerics beyond finiteness and shape checks."""
    top = _require_mapping(obj, "$")
    _reject_unknown(top, _TOP_KEYS, "$")
    for key in ("kind", "dimension", "field", "gain", "delay"):
        if key not in top:
            raise InputError(f"$.{key}: required key missing")
    kind = _require_string(top["kind"], "$.kind")
    if kind not in _KINDS:
        raise InputError(f"$.kind: expected one of {', '.join(_KINDS)}")
    dimension = _require_int(top["dimension"], "$.dimension")
    if not 1 <= dimension <= 64:
        raise InputError("$.dimension: must be between 1 and 64")
    field = _parse_field(top["field"], kind, dimension, "$.field")
    gain = _require_matrix(top["gain"], dimension, "$.gain")
    delay = positive_finite(_require_number(top["delay"], "$.delay"), "$.delay")

    point = None
    period = None
    if kind == "equilibrium":
        if "period" in top:
            raise InputError("$.period: only valid for periodic-linear problems")
        if "point" in top:
            point = _require_vector(top["point"], dimension, "$.point")
        else:
            point = np.zeros(dimension)
    else:
        if "point" in top:
            raise InputError("$.point: only valid for equilibrium problems")
        if "period" not in top:
            raise InputError("$.period: required for periodic-linear problems")
        period = positive_finite(_require_number(top["period"], "$.period"), "$.period")
        if delay != period:
            raise InputError("$.delay: must equal the period exactly")
        if isinstance(field, np.ndarray):  # matrix samples wait for the period
            field = TrigCoefficient(field, period)

    tolerances = DEFAULT
    if "tolerances" in top:
        overrides = _require_mapping(top["tolerances"], "$.tolerances")
        clean = {}
        for key, val in overrides.items():
            if key not in _TOL_KEYS:
                raise InputError(f"$.tolerances.{key}: unknown tolerance")
            clean[key] = _require_number(val, f"$.tolerances.{key}")
        try:
            tolerances = DEFAULT.replace(**clean)
        except InputError as err:  # it names the field
            raise InputError(f"$.tolerances.{err}") from None

    region = None
    if "region" in top:
        rg = _require_mapping(top["region"], "$.region")
        keys = ("re_min", "re_max", "im_max")
        _reject_unknown(rg, keys, "$.region")
        for key in keys:
            if key not in rg:
                raise InputError(f"$.region.{key}: required key missing")
        bounds = [_require_number(rg[key], f"$.region.{key}") for key in keys]
        try:
            region = Region(*bounds)
        except InputError as err:
            raise InputError(f"$.region: {err}") from None

    name = _require_string(top["name"], "$.name") if "name" in top else None
    return ProblemDocument(
        kind, dimension, field, gain, delay, point, period,
        tolerances, region, name, raw=obj,
    )


def build_problem(doc: ProblemDocument):
    """Construct the problem object a document describes.

    For equilibrium documents the declared point must actually be an
    equilibrium of the field: the residual |f(point)| is checked against
    tol_eq.  The field and its Jacobian must be defined there; an
    expression that leaves its domain is reported by its JSON path.
    """
    feedback = DelayFeedback(doc.gain, doc.delay)
    if doc.kind == "periodic-linear":
        return PeriodicLinearProblem(doc.field, doc.period, feedback)
    problem = EquilibriumProblem(doc.field, doc.point, feedback)
    try:
        residual = validate_equilibrium(problem)
        problem.jacobian()
    except DomainError as err:  # it names expressions[i]
        where = "$.field.builtin: " if "builtin" in doc.raw["field"] else "$.field."
        raise InputError(f"{where}{err}") from None
    if residual > doc.tolerances.tol_eq:
        raise InputError(
            f"$.point: residual |f(point)| = {residual:.3e} exceeds "
            f"tol_eq = {doc.tolerances.tol_eq:.1e}; not an equilibrium"
        )
    return problem


def load_problem(obj):
    """Parse and build in one go: returns (document, problem)."""
    doc = parse_document(obj)
    return doc, build_problem(doc)


def read_problem_file(path: str):
    """Load a problem from a JSON file with schema diagnostics."""
    try:
        with open(path, "r") as handle:
            obj = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON: {err}") from None
    return load_problem(obj)


# ---------------------------------------------------------------------------
# serialization back to documents


def describe_problem(problem, name: Optional[str] = None) -> dict:
    """Render a problem object as a plain JSON-ready document.

    Opaque periodic coefficients are sampled at `_COEFFICIENT_SAMPLES`
    equispaced times; expression and matrix fields serialize exactly.
    """
    if isinstance(problem, EquilibriumProblem):
        field = problem.field
        if isinstance(field, ExpressionField):
            spec = {"expressions": list(field.source_strings())}
            if field.params:
                spec["params"] = {k: v for k, v in field.params}
        elif isinstance(field, LinearField):
            spec = {"matrix": field.matrix.tolist()}
        else:
            raise InputError(
                f"cannot serialize a field of type {type(field).__name__}"
            )
        doc = {
            "kind": "equilibrium",
            "dimension": problem.feedback.dimension,
            "field": spec,
            "point": np.asarray(problem.point, dtype=float).tolist(),
            "gain": problem.feedback.gain.tolist(),
            "delay": problem.feedback.delay,
        }
    elif isinstance(problem, PeriodicLinearProblem):
        coeff = problem.coefficient
        if isinstance(coeff, ConstantCoefficient):
            spec = {"matrix": coeff.matrix.tolist()}
        elif isinstance(coeff, TrigCoefficient):
            spec = {"matrix-samples": coeff.samples.tolist()}
        else:
            ts = np.arange(_COEFFICIENT_SAMPLES) * (problem.period / _COEFFICIENT_SAMPLES)
            vals = [np.asarray(problem.coefficient_at(t), dtype=float).tolist() for t in ts]
            spec = {"matrix-samples": vals}
        doc = {
            "kind": "periodic-linear",
            "dimension": problem.dimension,
            "field": spec,
            "period": problem.period,
            "gain": problem.feedback.gain.tolist(),
            "delay": problem.feedback.delay,
        }
    else:
        raise InputError(f"cannot serialize {type(problem).__name__}")
    if name is not None:
        doc["name"] = name
    return doc


def document_digest(raw) -> str:
    """SHA-256 of the canonical JSON rendering (sorted keys, no spaces)."""
    try:
        canon = json.dumps(raw, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as err:
        raise InputError(f"document is not canonical JSON: {err}") from None
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
