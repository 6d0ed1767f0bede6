"""Golden test: every catalog ``analyze`` envelope, apart from timing.

``tests/data/catalog_envelopes.json`` holds the envelope of
``pyrastab analyze`` on each catalog document, without ``timing_s`` and
with floats rounded to 1e-9 (signed zeros folded), the canonical form the
benchmark digests use.  A change that is meant to leave the answers alone
must leave this file alone.  A change that moves an answer on purpose
regenerates it with

    PYTHONPATH=src python tests/test_catalog_envelopes.py

and says in its change notes which envelopes moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from pyrastab.benchmarks import case_names, get_case
from pyrastab.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "catalog_envelopes.json")


def canonical(obj):
    """JSON-ready copy with floats rounded to 1e-9 and signed zeros folded."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 9) + 0.0
    return obj


def catalog_envelope(name: str, workdir: str) -> dict:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(get_case(name).document(), handle)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", path])
    assert code == 0, f"analyze {name} exited {code}"
    env = json.loads(out.getvalue())
    env.pop("timing_s")
    return canonical(env)


def _golden() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_the_catalog():
    assert sorted(_golden()) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_catalog_envelope_is_unchanged(name, tmp_path):
    assert catalog_envelope(name, str(tmp_path)) == _golden()[name]


def test_multiplier_one_is_counted_alike_from_both_call_sites():
    # the multiplier report and the determining-center check both take the
    # geometric multiplicity at 1 of the same ODE monodromy; the envelope
    # test above ties these golden values to the code
    periodic = {name: env["results"] for name, env in _golden().items()
                if env["results"]["kind"] == "periodic-linear"}
    assert len(periodic) == 5
    for res in periodic.values():
        assert res["multipliers"]["unit_geometric"] == res["determining"]["g_ode"]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        envelopes = {name: catalog_envelope(name, workdir) for name in case_names()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(envelopes, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    regenerate()
