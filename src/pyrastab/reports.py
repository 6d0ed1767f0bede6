"""Result serialization: CSV tables and deterministic JSON envelopes.

CSV dialect: comma separator, '.' decimal point, one header row, LF line
endings, floats at 17 significant digits so a reader recovers the exact
doubles.  JSON envelopes are emitted with sorted keys and fixed
indentation; for a fixed input document and seed the bytes are
reproducible (the timing field is informational and excluded from that
contract).  All files are written atomically: temp file, then rename.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .equilibria import HopfCurveFamily, LocusResult, SpectrumReport
from .periodic import MultiplierReport
from .simulate import Trajectory
from .tolerances import Tolerances

TOOL_NAME = "pyrastab"
TOOL_VERSION = "0.1.0"

_FMT = "%.17g"

__all__ = [
    "TOOL_NAME",
    "TOOL_VERSION",
    "fmt",
    "to_jsonable",
    "dump_json",
    "atomic_write_text",
    "write_csv",
    "hopf_table",
    "locus_table",
    "spectrum_table",
    "multiplier_table",
    "trajectory_table",
    "envelope",
]


def fmt(x) -> str:
    """One float, round-trip exact."""
    return _FMT % float(x)


def to_jsonable(obj):
    """Recursively convert results to JSON-ready types; the one serializer
    of results, so every envelope follows the same rules.

    Complex numbers become {"re": ..., "im": ...}; numpy scalars and
    arrays become Python scalars and lists; a dataclass becomes a dict of
    its fields, leaving out those whose value is None.
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"re": z.real, "im": z.imag}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return {name: to_jsonable(v) for name, v in fields if v is not None}
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    atomic_write_text(path, render_csv(header, rows))


# ---------------------------------------------------------------------------
# tables


def hopf_table(family: HopfCurveFamily):
    header = ("branch", "omega", "re_gain", "im_gain")
    rows = []
    for branch in family.branches:
        for omega, gain in zip(branch.omegas, branch.gains):
            rows.append((branch.index, omega, gain.real, gain.imag))
    return header, rows


def locus_table(result: LocusResult):
    header = ("s", "re", "im", "trace")
    rows = []
    for trace in result.traces:
        for point in trace.points:
            rows.append((point.s, point.value.real, point.value.imag, trace.trace_id))
    return header, rows


def spectrum_table(report: SpectrumReport):
    header = ("re", "im", "algebraic", "geometric", "residual", "marginal")
    rows = []
    for root, marginal in [(r, 0) for r in report.roots] + [(r, 1) for r in report.marginal]:
        rows.append(
            (root.value.real, root.value.imag, root.algebraic, root.geometric,
             root.residual, marginal)
        )
    return header, rows


def multiplier_table(report: MultiplierReport):
    header = ("re", "im", "algebraic", "geometric")
    rows = [
        (e.value.real, e.value.imag, e.algebraic, e.geometric) for e in report.entries
    ]
    return header, rows


def trajectory_table(trajectory: Trajectory):
    n = trajectory.states.shape[1]
    header = ("t",) + tuple(f"x{i + 1}" for i in range(n))
    rows = [
        (trajectory.times[i],) + tuple(trajectory.states[i])
        for i in range(len(trajectory))
    ]
    return header, rows


# ---------------------------------------------------------------------------
# envelopes


def envelope(digest: str, results, tolerances: Tolerances, timing_s: float) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "input": {"digest": digest},
        "results": to_jsonable(results),
        "tolerances": to_jsonable(tolerances),
        "timing_s": float(timing_s),
    }
