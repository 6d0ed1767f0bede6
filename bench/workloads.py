"""The benchmark's workloads: the operations of one pass, the check on each
output, and the summary of each output that goes into the run's digest.

Every operation calls the package through a public entry point, looked up
as a module attribute at call time so the tracer's rebinding applies:
``cli.main`` and the public functions of ``periodic`` and ``equilibria``.
Expected values come from the catalog's recorded facts, which carry their
own provenance, or from an independent recount on a finer boundary grid.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from pyrastab import cli, equilibria, periodic, reports, rootfinding
from pyrastab.benchmarks import get_case
from pyrastab.tolerances import DEFAULT

FLOQUET_CATALOG = ("center-periodic", "orbit-unstable", "orbit-neutral",
                   "diag-periodic", "trig-periodic")
FLOQUET_FINE = ("orbit-neutral", "center-periodic")
FINE_NODES = 64
EQUILIBRIA = (
    "scalar-basic", "scalar-damped-gain", "scalar-strong-gain", "scalar-stable",
    "focus-resonant-inward", "focus-resonant-outward", "focus-resonant-strong",
    "focus-nonresonant", "focus-diagonal-gain", "focus-rotation-gain-inward",
    "focus-rotation-gain-outward", "odd-three-dim", "saddle-two-dim",
)
LOCUS_CASES = ("scalar-basic", "focus-resonant-inward", "focus-nonresonant", "odd-three-dim")
LOCUS_PATH = "real:-1:1:21"
RANDOM_DIMS = (2, 5, 10, 20)
# Fixed draws, not taken from the workload seed: draws 0-2 at n = 20 are the
# recorded reproduction of the aliasing defect below, which most other draws
# do not trigger, and a failing draw costs half as much as a passing one, so
# seeded draws would both hide the defect and make the pass cost follow the seed.
RANDOM_DRAW_SEEDS = (0, 1, 2)
RANDOM_GAIN = 0.3
# At this dimension the boundary sample spacing does not shrink with n and
# the winding count aliases: count_roots undercounts by two and find_roots
# raises RootCountError.  These operations stay in the workload and fail.
ALIASING_DIM = 20
ALIASING = "winding count aliases at n = 20: count_roots undercounts, find_roots raises"
REFINE = 16

ANALYZE_EQUILIBRIUM_FACTS = ("dominant-root", "unstable-count", "verdict", "witness")
ANALYZE_PERIODIC_FACTS = ("multipliers", "unit-geometric", "determining-invariance",
                          "verdict", "witness")


@dataclass
class Op:
    """One operation: ``call`` is timed; ``check`` returns failure reasons
    (empty when the output is right); ``summary`` is the output's canonical
    form for the digest."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    summary: Callable[[object], object]
    known_defect: Optional[str] = None


# ---------------------------------------------------------------------------
# output handling


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def canonical(obj):
    """JSON-ready copy with floats rounded to 1e-9 and signed zeros folded."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 9) + 0.0
    return obj


def _envelope(output) -> Optional[dict]:
    code, out, _err = output
    return json.loads(out) if code == 0 else None


def _cli_summary(output):
    env = _envelope(output)
    if env is None:
        return {"exit": output[0]}
    env.pop("timing_s")
    return canonical(env)


def _checked_cli(check_results):
    """Check of a CLI envelope: exit code 0, then ``check_results(results)``."""

    def check(output):
        code, _out, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        env = _envelope(output)
        return check_results(env["results"], env["tolerances"])

    return check


# ---------------------------------------------------------------------------
# catalog facts


def _close(got: dict, want: dict, tol: float) -> bool:
    return (abs(got["re"] - want["re"]) <= tol
            and abs(abs(got["im"]) - abs(want["im"])) <= tol)


def _fact_failure(fact, res: dict, tol_axis: float) -> Optional[str]:
    kind, want, tol = fact.kind, fact.value, fact.tol
    verdicts = {v["rule"]: v for v in res.get("verdicts", ())}
    if kind == "dominant-root":
        roots = res["spectrum"]["roots"]
        got = max((r["value"] for r in roots), key=lambda v: v["re"], default=None)
        ok = got is not None and _close(got, want, tol)
    elif kind == "unstable-count":
        got = sum(r["algebraic"] for r in res["spectrum"]["roots"]
                  if r["value"]["re"] > tol_axis)
        ok = got == want
    elif kind == "verdict":
        got = verdicts.get(want["rule"], {}).get("outcome")
        ok = got == want["outcome"]
    elif kind == "witness":
        got = verdicts.get(want["rule"], {}).get("witness")
        ok = got is not None and _close(got, want, tol)
    elif kind == "multipliers":
        got = res["multipliers"]["entries"]
        ok = len(got) == len(want)
        for w in want:
            target = complex(w["re"], w["im"])
            near = min(got, key=lambda e: abs(complex(e["value"]["re"], e["value"]["im"]) - target))
            ok = ok and (abs(complex(near["value"]["re"], near["value"]["im"]) - target) <= tol
                         and near["algebraic"] == w["algebraic"]
                         and near["geometric"] == w["geometric"])
    elif kind == "unit-geometric":
        got = res["multipliers"]["unit_geometric"]
        ok = got == want
    elif kind == "determining-invariance":
        got = res["determining"]["equal"]
        ok = got == want
    else:
        raise ValueError(f"no check for fact kind {kind!r}")
    return None if ok else f"{kind} {want!r}: got {got!r}"


def _facts_check(case, kinds):
    facts = [f for f in case.facts if f.kind in kinds]
    if not facts:
        raise ValueError(f"case {case.name} records no fact this operation can check")

    def check_results(res, tolerances):
        found = (_fact_failure(f, res, tolerances["tol_axis"]) for f in facts)
        return [msg for msg in found if msg]

    return check_results


def _fact_value(case, kind):
    return next(f.value for f in case.facts if f.kind == kind)


# ---------------------------------------------------------------------------
# operations


def write_documents(workdir: str, names) -> dict:
    """Catalog documents on disk, as a user of the command line has them."""
    paths = {}
    for name in names:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(get_case(name).document(), handle)
        paths[name] = path
    return paths


def analyze_op(name: str, path: str) -> Op:
    case = get_case(name)
    kinds = (ANALYZE_PERIODIC_FACTS if case.name in FLOQUET_CATALOG
             else ANALYZE_EQUILIBRIUM_FACTS)
    return Op(f"analyze/{name}", lambda: run_cli(["analyze", path]),
              _checked_cli(_facts_check(case, kinds)), _cli_summary)


def locus_op(name: str, path: str) -> Op:
    case = get_case(name)
    gain_matrix = case.problem().feedback.gain
    gain = float(gain_matrix[0, 0])
    if not np.array_equal(gain_matrix, gain * np.eye(len(gain_matrix))):
        raise ValueError(f"locus check needs a scalar gain; {name} has {gain_matrix}")
    want = _fact_value(case, "unstable-count")
    odd = any(f.kind == "verdict" and f.value == {"rule": "odd-number", "outcome": "excluded"}
              for f in case.facts)

    def check_results(res, _tolerances):
        counts = res["counts"]
        failures = []
        at_gain = min(counts, key=lambda c: abs(c["s"] - gain))
        if at_gain["unstable_count"] != want:
            failures.append(f"count {at_gain['unstable_count']} at s={at_gain['s']}, want {want}")
        if odd:
            # the odd-number rule: the count stays odd for every real gain
            even = [c["s"] for c in counts if c["unstable_count"] % 2 == 0]
            if even:
                failures.append(f"even unstable count at s={even}")
        return failures

    return Op(f"locus/{name}", lambda: run_cli(["locus", path, LOCUS_PATH, "--json"]),
              _checked_cli(check_results), _cli_summary)


def simulate_op(name: str, path: str, seed: int) -> Op:
    case = get_case(name)
    signs = [f.value for f in case.facts if f.kind == "growth-sign"]

    def check_results(res, _tolerances):
        failures = [] if res["consistent"] else ["time domain disagrees with the spectrum"]
        if signs:
            rate = res["growth_rate"]
            grew = res["blown_at"] is not None or (rate is not None and rate > 0.0)
            sign = 1 if grew else -1
            if sign != signs[0]:
                failures.append(f"growth sign {sign}, want {signs[0]}")
        return failures

    return Op(f"simulate/{name}", lambda: run_cli(["simulate", path, "--seed", str(seed)]),
              _checked_cli(check_results), _cli_summary)


def invariance_op(name: str) -> Op:
    case = get_case(name)
    problem = case.problem()
    want = _fact_value(case, "unit-geometric")

    def check(inv):
        failures = [] if inv.equal else [f"g_ode {inv.g_ode} != g_dde {inv.g_dde}"]
        if inv.g_ode != want:
            failures.append(f"g_ode {inv.g_ode}, want {want}")
        return failures

    def summary(inv):
        return {"g_ode": inv.g_ode, "g_dde": inv.g_dde, "g_dde_refined": inv.g_dde_refined}

    return Op(f"determining/{name}",
              lambda: periodic.check_determining_invariance(problem, nodes=FINE_NODES),
              check, summary)


def _reference_count(cm) -> int:
    """Root count on the default region with the boundary sampled 16 times
    finer than the package's spacing rule at the time this benchmark was
    written: the delay term's period over 8, or the longer side over 4n + 4."""
    region = equilibria.default_region(cm)
    rect = region.rect()
    spacing = min(2.0 * math.pi / cm.delay / 8.0,
                  max(rect.width, rect.height) / (4.0 * cm.dimension + 4.0))
    count, _ = rootfinding.count_with_nudge(
        cm.det_batch, rect, spacing / REFINE, 1e-13 * region.scale,
        region.scale, DEFAULT.tol_region)
    return count


def _random_pair(n: int, j_seed: int) -> list:
    jac = np.random.default_rng(j_seed).normal(size=(n, n)) / math.sqrt(n)
    cm = equilibria.CharacteristicMatrix(jac, RANDOM_GAIN * np.eye(n), 2.0 * math.pi)
    want = functools.cache(lambda: _reference_count(cm))

    def check_count(got):
        return [] if got == want() else [f"count {got}, refined count {want()}"]

    def check_found(rep):
        return [] if rep.count == want() else [f"found {rep.count}, refined count {want()}"]

    defect = ALIASING if n == ALIASING_DIM else None
    tag = f"n{n}/J{j_seed}"
    return [
        Op(f"count_roots/{tag}", lambda: equilibria.count_roots(cm), check_count, int, defect),
        Op(f"find_roots/{tag}", lambda: equilibria.find_roots(cm), check_found,
           lambda rep: canonical(reports.to_jsonable(rep)), defect),
    ]


def random_ops() -> list:
    """count_roots and find_roots on J = N(0,1)/sqrt(n), K = 0.3 I, T = 2 pi."""
    return [op for n in RANDOM_DIMS for j_seed in RANDOM_DRAW_SEEDS
            for op in _random_pair(n, j_seed)]


# ---------------------------------------------------------------------------
# workloads: set-up returns the operations of one pass


def _warm_floquet() -> None:
    # every periodic code path once, on a small grid
    problem = get_case("diag-periodic").problem()
    mono = periodic.ode_monodromy(problem, steps=64)
    periodic.multipliers(mono)
    periodic.floquet_decompose(mono)
    loose = DEFAULT.replace(tol_xcheck=math.inf)
    periodic.dde_monodromy(problem, nodes=8, steps=64, tol=loose)
    run_cli(["catalog", "diag-periodic"])


def setup_floquet_catalog(workdir: str, seed: int) -> list:
    paths = write_documents(workdir, FLOQUET_CATALOG)
    _warm_floquet()
    return [analyze_op(name, paths[name]) for name in FLOQUET_CATALOG]


def setup_floquet_fine(workdir: str, seed: int) -> list:
    ops = [invariance_op(name) for name in FLOQUET_FINE]
    _warm_floquet()
    return ops


def setup_spectra(workdir: str, seed: int) -> list:
    paths = write_documents(workdir, EQUILIBRIA)
    ops = [analyze_op(name, paths[name]) for name in EQUILIBRIA]
    ops += [locus_op(name, paths[name]) for name in LOCUS_CASES]
    ops += random_ops()
    run_cli(["analyze", paths["scalar-basic"]])
    run_cli(["locus", paths["scalar-basic"], "real:-1:1:3", "--json"])
    return ops


def setup_timedomain(workdir: str, seed: int) -> list:
    paths = write_documents(workdir, EQUILIBRIA)
    ops = [simulate_op(name, paths[name], seed * len(EQUILIBRIA) + i)
           for i, name in enumerate(EQUILIBRIA)]
    run_cli(["simulate", paths["scalar-basic"], "--horizon", "3"])
    return ops


WORKLOADS = {
    "floquet-catalog": setup_floquet_catalog,
    "floquet-fine": setup_floquet_fine,
    "spectra": setup_spectra,
    "timedomain": setup_timedomain,
}
