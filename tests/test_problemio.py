"""Problem-document parsing: round trips, diagnostics, and digests.

Malformed documents must fail with an InputError whose message names the
offending location as a JSON path; no input may crash with anything
else.  Round trips go problem -> document -> problem -> document and
compare the two documents structurally.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrastab import problemio
from pyrastab.benchmarks import case_names, get_case
from pyrastab.errors import InputError
from pyrastab.problemio import (
    build_problem,
    describe_problem,
    document_digest,
    load_problem,
    parse_document,
    read_problem_file,
)


def _scalar_doc(**over):
    doc = {
        "kind": "equilibrium",
        "dimension": 1,
        "field": {"matrix": [[0.05]]},
        "gain": [[0.3]],
        "delay": 6.283185307179586,
    }
    doc.update(over)
    return doc


def _planar(field):
    """Mutation to a two-dimensional equilibrium document with ``field``."""
    return lambda d: d.update(dimension=2, gain=[[0.3, 0.0], [0.0, 0.3]], field=field)


def _periodic_doc(**over):
    doc = {
        "kind": "periodic-linear",
        "dimension": 2,
        "field": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
        "gain": [[1.0, 2.0], [0.0, 1.0]],
        "delay": 6.283185307179586,
        "period": 6.283185307179586,
    }
    doc.update(over)
    return doc


def test_minimal_equilibrium_document():
    doc, prob = load_problem(_scalar_doc())
    assert doc.kind == "equilibrium"
    assert prob.dimension == 1
    assert prob.point == pytest.approx([0.0])  # default
    assert prob.feedback.delay == pytest.approx(2 * np.pi)


def test_minimal_periodic_document():
    doc, prob = load_problem(_periodic_doc())
    assert doc.kind == "periodic-linear"
    assert prob.period == pytest.approx(2 * np.pi)


def test_expressions_document_with_params():
    raw = _scalar_doc(
        field={"expressions": ["r * x1 - x1 ^ 3"], "params": {"r": 0.05}}
    )
    _, prob = load_problem(raw)
    assert prob.field([0.0]) == pytest.approx([0.0])
    assert prob.jacobian()[0, 0] == pytest.approx(0.05)


def test_expressions_are_parsed_once(monkeypatch):
    calls = []
    parse = problemio.parse_field

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(problemio, "parse_field", counted)
    _, prob = load_problem(_scalar_doc(field={"expressions": ["0.05 * x1"]}))
    assert len(calls) == 1
    assert prob.jacobian()[0, 0] == pytest.approx(0.05)


def test_builtin_document():
    raw = _scalar_doc(field={"builtin": "scalar-growth"})
    _, prob = load_problem(raw)
    assert prob.jacobian()[0, 0] == pytest.approx(0.05)


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.pop("kind"), "$.kind"),
        (lambda d: d.update(kind="banana"), "$.kind"),
        (lambda d: d.pop("dimension"), "$.dimension"),
        (lambda d: d.update(dimension=0), "$.dimension"),
        (lambda d: d.update(dimension=True), "$.dimension"),
        (lambda d: d.pop("field"), "$.field"),
        (lambda d: d.update(field={}), "$.field"),
        (lambda d: d.update(field={"matrix": [[0.05]], "builtin": "focus"}), "$.field"),
        (lambda d: d.update(field={"expressions": ["x1 +"]}), "$.field.expressions"),
        (_planar({"expressions": ["x2", "-sin(x1) - q*x2"]}),
         "$.field.expressions[1]: unknown identifier 'q'"),
        # f(point) leaves the domain of log; the Jacobian leaves that of sqrt
        (_planar({"expressions": ["x2", "log(x1)"]}), "$.field.expressions[1]: log"),
        (_planar({"expressions": ["x2", "sqrt(x1)"]}), "$.field.expressions[1]: sqrt"),
        (_planar({"expressions": ["x2", "x1 * 2"], "params": {"x1": 5.0}}),
         "$.field.params.x1: "),
        (_planar({"expressions": ["x2", "x3 + x1"], "params": {"x3": 5.0}}),
         "$.field.params.x3: "),
        (lambda d: d.update(field={"builtin": "scalar-cubic"}, point=[1e103]),
         "$.field.builtin: expressions[0]: overflow"),
        (lambda d: d.update(gain=[[1.0, 2.0]]), "$.gain"),
        (lambda d: d.update(delay=-1.0), "$.delay"),
        (lambda d: d.update(period=2.0), "$.period"),
        (lambda d: d.update(point=[0.0, 0.0]), "$.point"),
        (lambda d: d.update(tolerances={"bogus": 1.0}), "$.tolerances"),
        (lambda d: d.update(region={"re_min": 0.0}), "$.region"),
        (
            lambda d: d.update(region={"re_min": 1.0, "re_max": 0.0, "im_max": 1.0}),
            "$.region",
        ),
    ],
)
def test_diagnostics_name_the_offending_path(mutate, path):
    doc = _scalar_doc()
    mutate(doc)
    with pytest.raises(InputError) as info:
        load_problem(doc)
    assert path in str(info.value)


def test_periodic_specific_diagnostics():
    with pytest.raises(InputError, match=r"\$\.period"):
        load_problem(_periodic_doc(period=None))
    bad = _periodic_doc()
    bad["delay"] = 3.0
    with pytest.raises(InputError, match="must equal the period exactly"):
        load_problem(bad)
    with pytest.raises(InputError, match=r"\$\.point"):
        load_problem(_periodic_doc(point=[0.0, 0.0]))


def test_point_residual_is_checked():
    doc = _scalar_doc(point=[1.0])  # not an equilibrium of 0.05 x
    with pytest.raises(InputError, match=r"\$\.point.*residual"):
        load_problem(doc)


def test_matrix_samples_periodic_only():
    with pytest.raises(InputError, match=r"\$\.field"):
        load_problem(_scalar_doc(field={"matrix-samples": [[[0.1]]] * 8}))
    raw = _periodic_doc(
        field={
            "matrix-samples": [
                [[0.1, 0.0], [0.0, 0.2]] for _ in range(8)
            ]
        }
    )
    _, prob = load_problem(raw)
    assert prob.coefficient_at(1.0) == pytest.approx(np.diag([0.1, 0.2]))


def test_round_trip_catalog_documents():
    for name in case_names():
        doc = get_case(name).document()
        parsed = parse_document(doc)
        prob = build_problem(parsed)
        again = describe_problem(prob, name=name)
        assert again == doc
        assert document_digest(again) == document_digest(doc)


def test_digest_ignores_key_order():
    a = _scalar_doc()
    b = dict(reversed(list(a.items())))
    assert document_digest(a) == document_digest(b)


def test_digest_sensitive_to_values():
    assert document_digest(_scalar_doc()) != document_digest(
        _scalar_doc(gain=[[0.30000001]])
    )


def test_read_problem_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_scalar_doc()))
    _, prob = read_problem_file(path)
    assert prob.dimension == 1
    with pytest.raises(InputError):
        read_problem_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        read_problem_file(bad)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 70),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(
    doc=st.dictionaries(
        st.sampled_from(
            [
                "kind",
                "dimension",
                "field",
                "gain",
                "delay",
                "period",
                "point",
                "tolerances",
                "region",
                "name",
                "extra",
            ]
        ),
        _VALUES,
        max_size=8,
    )
)
def test_fuzzed_documents_never_crash(doc):
    # anything goes in, but only InputError may come out
    try:
        load_problem(doc)
    except InputError:
        pass
