"""Verdict records: the hypotheses decide the outcome, the witness only
corroborates an exclusion and is computed only when one is reached."""

import pytest

from pyrastab.errors import InputError, RootCountError
from pyrastab.verdicts import EXCLUDED, NOT_EXCLUDED, Hypothesis, Verdict

_HOLDS = Hypothesis("holds", True)
_FAILS = Hypothesis("fails", False)


def test_a_plain_witness_is_kept_for_an_exclusion():
    v = Verdict.from_hypotheses("rule", (_HOLDS, _HOLDS), 1.5 + 0.5j)
    assert v.outcome == EXCLUDED and v.witness == 1.5 + 0.5j
    assert Verdict.from_hypotheses("rule", [_HOLDS, _FAILS], 1.5).witness is None


@pytest.mark.parametrize(
    "hyps, calls", [((_HOLDS, _HOLDS), 1), ((_HOLDS, _FAILS), 0), ((_FAILS, _HOLDS), 0)]
)
def test_a_witness_callable_runs_only_for_an_exclusion(hyps, calls):
    made = []

    def witness():
        made.append(None)
        return 2.0

    v = Verdict.from_hypotheses("rule", hyps, witness)
    assert len(made) == calls
    assert v.witness == (2.0 if calls else None)
    assert v.outcome == (EXCLUDED if calls else NOT_EXCLUDED)
    assert v.hypotheses == hyps


def test_an_uncertified_witness_is_left_out():
    def witness():
        raise RootCountError("could not resolve 1 zero(s)")

    v = Verdict.from_hypotheses("rule", (_HOLDS,), witness)
    assert v.excluded and v.witness is None
    assert "witness" not in v.to_dict()


@pytest.mark.parametrize("error", [InputError("bad"), ValueError("bad"), ZeroDivisionError()])
def test_other_witness_errors_propagate(error):
    def witness():
        raise error

    with pytest.raises(type(error)):
        Verdict.from_hypotheses("rule", (_HOLDS,), witness)
