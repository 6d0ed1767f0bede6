"""Parser and forward-mode differentiation tests.

The randomized corpus builds expression trees directly, prints them with
``to_source`` and re-parses, so the printer and parser are exercised
against each other; derivatives are cross-checked with central
differences at points kept away from domain boundaries.
"""

import math

import numpy as np
import pytest

from pyrastab.expressions import (
    Add,
    Call,
    Div,
    DomainError,
    Mul,
    Neg,
    Num,
    Param,
    ParseError,
    Pow,
    Sub,
    Var,
    evaluate,
    parse,
    to_source,
    value_and_partial,
)


def test_literals_and_precedence():
    e = parse("1 + 2 * 3 ^ 2", 1)
    assert evaluate(e, [0.0]) == 19.0
    e = parse("-2 ^ 2", 1)  # unary minus binds looser than the power
    assert evaluate(e, [0.0]) == -4.0
    e = parse("6 / 3 / 2", 1)  # left associative
    assert evaluate(e, [0.0]) == 1.0
    with pytest.raises(ParseError, match="parenthesize"):
        parse("2 ^ 3 ^ 2", 1)  # chained powers are rejected, not guessed at


def test_variables_time_and_params():
    # the grammar has no time variable: t is an identifier like any other,
    # unknown unless declared, and a parameter may take the name
    e = parse("a * x1 + x2 - t", 2, params=("a", "t"))
    assert evaluate(e, [2.0, 5.0], params={"a": 3.0, "t": 1.5}) == 2.0 * 3 + 5 - 1.5
    with pytest.raises(ParseError, match="unknown identifier 't'"):
        parse("a * x1 + x2 - t", 2, params=("a",))


def test_function_calls():
    e = parse("sin(x1) + cos(x2) * exp(x1)", 2)
    x = 0.3
    assert evaluate(e, [x, 2.0]) == pytest.approx(
        math.sin(x) + math.cos(2.0) * math.exp(x), rel=1e-15
    )


@pytest.mark.parametrize(
    "bad",
    [
        "x0",
        "x3",
        "sin",
        "sin(x1, x2)",
        "foo(x1)",
        "1 + ",
        "(x1",
        "x1 ** 2",
        "x1 ^ x1",
        "x1 ^ 2.5",
        "unknown_name",
        "",
    ],
)
def test_malformed_sources_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse(bad, 2, params=("a",))


@pytest.mark.parametrize(
    "source",
    [
        "(" * 1200 + "-x1" + ")" * 1200,  # deeper than the parser may recurse
        "-" * 1200 + "x1",
        "-x1" + " + 0*x1" * 3000,  # flat text, but a tree 3001 levels deep
    ],
)
def test_parse_refuses_a_source_nested_beyond_the_cap(source):
    with pytest.raises(ParseError, match="deeper than"):
        parse(source, 1)


@pytest.mark.parametrize(
    "nest",
    [
        lambda d: "(" * d + "x1 + 1" + ")" * d,
        lambda d: "(1 - " * d + "x1" + ")" * d,
        lambda d: "sin(" * d + "x1" + ")" * d,
        lambda d: "-" * d + "x1",
        lambda d: "x1" + " * x1" * (d - 1),
    ],
)
def test_every_accepted_depth_evaluates_and_prints(nest):
    # depth 100 parses, and so does each depth up to the cap; the deepest
    # source accepted evaluates, differentiates and prints without
    # exhausting the interpreter's recursion limit
    depth = 100
    node = parse(nest(depth), 1)
    while True:
        try:
            node = parse(nest(depth + 1), 1)
        except ParseError:
            break
        depth += 1
    value, _ = value_and_partial(node, [0.25], {}, 0)
    assert evaluate(node, [0.25]) == value
    assert parse(to_source(node), 1) == node


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("x1 + foo", 1)
    assert info.value.position == 5


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(x1)", 1), [-1.0])
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x1)", 1), [-4.0])
    with pytest.raises(DomainError):
        evaluate(parse("1 / x1", 1), [0.0])
    with pytest.raises(DomainError):
        evaluate(parse("x1 ^ -1", 1), [0.0])


def test_negative_integer_exponent():
    e = parse("x1 ^ -2", 1)
    assert evaluate(e, [2.0]) == 0.25


# --- randomized round trip and derivative corpus ---------------------------

_SAFE_FUNCS = ("sin", "cos", "exp", "tanh")


def _random_tree(rng, dim, params, depth):
    """Random expression tree restricted to totally defined operations."""
    if depth <= 0:
        choice = rng.integers(0, 3)
        if choice == 0:
            return Num(float(np.round(rng.uniform(-3, 3), 3)))
        if choice == 2 and params:
            return Param(params[int(rng.integers(0, len(params)))])
        return Var(int(rng.integers(0, dim)))
    choice = rng.integers(0, 7)
    if choice == 0:
        return Add(_random_tree(rng, dim, params, depth - 1), _random_tree(rng, dim, params, depth - 1))
    if choice == 1:
        return Sub(_random_tree(rng, dim, params, depth - 1), _random_tree(rng, dim, params, depth - 1))
    if choice == 2:
        return Mul(_random_tree(rng, dim, params, depth - 1), _random_tree(rng, dim, params, depth - 1))
    if choice == 3:
        # guarded denominator, bounded away from zero
        inner = _random_tree(rng, dim, params, depth - 2) if depth >= 2 else Var(0)
        den = Add(Num(2.0), Mul(inner, inner))
        return Div(_random_tree(rng, dim, params, depth - 1), den)
    if choice == 4:
        return Pow(_random_tree(rng, dim, params, depth - 1), int(rng.integers(1, 4)))
    if choice == 5:
        return Neg(_random_tree(rng, dim, params, depth - 1))
    name = _SAFE_FUNCS[int(rng.integers(0, len(_SAFE_FUNCS)))]
    return Call(name, _random_tree(rng, dim, params, depth - 1))


def test_print_parse_fixpoint_random_corpus():
    rng = np.random.default_rng(20413)
    params = ("a", "b")
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        tree = _random_tree(rng, dim, params, int(rng.integers(1, 5)))
        # one round normalizes sugar like a negated literal; after that the
        # print/parse pair must be an exact fixpoint
        canonical = parse(to_source(tree), dim, params)
        text = to_source(canonical)
        again = parse(text, dim, params)
        assert again == canonical
        assert to_source(again) == text


def test_forward_derivatives_match_central_differences():
    rng = np.random.default_rng(5821)
    params = ("a",)
    pmap = {"a": 0.7}
    checked = 0
    while checked < 200:
        dim = int(rng.integers(1, 4))
        tree = _random_tree(rng, dim, params, int(rng.integers(1, 5)))
        x = rng.uniform(-1.5, 1.5, size=dim)
        value = evaluate(tree, x, pmap)
        if abs(value) > 1e4:
            continue
        for i in range(dim):
            v, d = value_and_partial(tree, x, pmap, i)
            assert v == value
            h = 1e-5 * max(1.0, abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (evaluate(tree, xp, pmap) - evaluate(tree, xm, pmap)) / (2 * h)
            if abs(fd) > 1e4:
                continue
            assert d == pytest.approx(fd, rel=1e-6, abs=1e-6)
        checked += 1
