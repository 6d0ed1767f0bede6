"""Golden test: the ``simulate`` envelope of every equilibrium catalog document.

``tests/data/simulate_envelopes.json`` holds the envelope of
``pyrastab simulate <doc> --seed s`` for each equilibrium catalog document
at seeds 0 and 1, without ``timing_s`` and in the same canonical form as
``tests/data/catalog_envelopes.json`` (floats rounded to 1e-9, signed zeros
folded).  A change to the integrator that is meant to leave the answers
alone must leave this file alone.  A change that moves an answer on
purpose regenerates it with

    PYTHONPATH=src python tests/test_simulate_envelopes.py

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
from test_catalog_envelopes import canonical

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "simulate_envelopes.json")
SEEDS = (0, 1)
EQUILIBRIA = tuple(name for name in case_names()
                   if get_case(name).document()["kind"] == "equilibrium")
KEYS = tuple(f"{name}/seed{seed}" for name in EQUILIBRIA for seed in SEEDS)


def simulate_envelope(key: str, workdir: str) -> dict:
    name, seed = key.split("/seed")
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(get_case(name).document(), handle)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", path, "--seed", seed])
    assert code == 0, f"simulate {key} exited {code}"
    env = json.loads(out.getvalue())
    env.pop("timing_s")
    return canonical(env)


def _golden() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_the_equilibrium_catalog():
    assert len(EQUILIBRIA) == 13
    assert sorted(_golden()) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_simulate_envelope_is_unchanged(key, tmp_path):
    assert simulate_envelope(key, str(tmp_path)) == _golden()[key]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        envelopes = {key: simulate_envelope(key, workdir) for key in KEYS}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(envelopes, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    regenerate()
