"""Property checks of the config-expression grammar that the README states.

Expressions are drawn from that grammar: numbers, ``x``, ``e`` and ``pi``;
``+ - * / // % ** & |`` and unary ``+ - ~``; single comparisons, combined
with ``&``, ``|`` and ``~``, as the condition of ``where``; and calls to the
listed functions.  Each must build and evaluate to the same bytes as a plain
``eval`` with the numpy functions of those names, unless one of its
constant subexpressions fails, which must be refused when it is built.  One
forbidden construct spliced into such an expression must be refused too.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_em.cli import ExpressionFunction

_FUNCTIONS_1 = ("abs", "arctan", "cos", "exp", "log", "sign", "sin", "sqrt", "tanh")
_FUNCTIONS_2 = ("maximum", "minimum")
_NAMES = {
    **{name: getattr(np, name) for name in _FUNCTIONS_1 + _FUNCTIONS_2 + ("where",)},
    "e": math.e,
    "pi": math.pi,
}
_X = np.array([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0])


class Node(NamedTuple):
    text: str
    const: bool  # reads no name and calls nothing
    fails: bool  # a constant subexpression raises under eval
    value: object  # of a constant that does not fail


def _node(text, children=(), const=True):
    const = const and all(c.const for c in children)
    fails = any(c.fails for c in children)
    value = None
    if const and not fails:
        try:
            value = eval(text, {"__builtins__": {}})
        except Exception:
            fails = True
    return Node(text, const, fails, value)


def _binary(a, op, b):
    return _node(f"({a.text}) {op} ({b.text})", (a, b))


def _power(a, b):
    # an integer power of more than 65,536 bits is refused unevaluated, which
    # test_cli checks; here a constant integer power stays small enough to eval
    if type(a.value) is type(b.value) is int and b.value * a.value.bit_length() > 20_000:
        b = _node("0")
    return _binary(a, "**", b)


_LEAF = st.one_of(
    st.integers(0, 9).map(lambda i: _node(str(i))),
    st.sampled_from([0.0, 0.5, 1.5, 2.0, 1e-3, 1e300]).map(lambda v: _node(repr(v))),
    st.sampled_from(["x", "x", "e", "pi"]).map(lambda n: _node(n, const=False)),
)


def _condition(inner):
    compare = st.builds(
        lambda a, op, b: _node(f"({a.text}) {op} ({b.text})", (a, b), const=False),
        inner, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), inner,
    )
    return st.one_of(
        compare,
        st.builds(_binary, compare, st.sampled_from(["&", "|"]), compare),
        compare.map(lambda a: _node(f"~({a.text})", (a,))),
    )


def _extend(inner):
    return st.one_of(
        st.builds(_binary, inner, st.sampled_from(["+", "-", "*", "/", "//", "%", "&", "|"]), inner),
        st.builds(_power, inner, inner),
        st.builds(lambda op, a: _node(f"{op}({a.text})", (a,)), st.sampled_from("+-~"), inner),
        st.builds(lambda f, a: _node(f"{f}({a.text})", (a,), const=False),
                  st.sampled_from(_FUNCTIONS_1), inner),
        st.builds(lambda f, a, b: _node(f"{f}({a.text}, {b.text})", (a, b), const=False),
                  st.sampled_from(_FUNCTIONS_2), inner, inner),
        st.builds(lambda c, a, b: _node(f"where({c.text}, {a.text}, {b.text})", (c, a, b),
                                        const=False),
                  _condition(inner), inner, inner),
    )


_EXPRESSIONS = st.recursive(_LEAF, _extend, max_leaves=8)


def _outcome(call):
    with np.errstate(all="ignore"):
        try:
            value = np.asarray(call())
        except Exception as exc:
            return type(exc), str(exc)
    if value.dtype.hasobject:  # a Python int past 64 bits
        return value.dtype, value.tolist()
    return value.dtype, value.shape, value.tobytes()


@settings(max_examples=300, deadline=None)
@given(node=_EXPRESSIONS)
def test_grammar_expression_evaluates_as_eval_unless_a_constant_fails(node):
    if node.fails:
        with pytest.raises(ValueError, match="has a constant that fails") as info:
            ExpressionFunction(node.text, ("x",))
        assert repr(node.text) in str(info.value)
        return
    f = ExpressionFunction(node.text, ("x",))
    expected = _outcome(lambda: eval(node.text, {"__builtins__": {}, **_NAMES}, {"x": _X}))
    assert _outcome(lambda: f(_X)) == expected


_FORBIDDEN = (
    "({}).real",  # attribute
    "({})[0]",  # subscript
    "({}) and x",
    "({}) or x",
    "not ({})",
    "-1 < ({}) < x",  # chained comparison
    "sin(x=({}))",  # keyword argument
    "({}) + y",  # unknown name
    "({}) + 'text'",  # string constant
    "(lambda: ({}))()",
)


@settings(max_examples=300, deadline=None)
@given(node=_EXPRESSIONS, construct=st.sampled_from(_FORBIDDEN))
def test_forbidden_construct_spliced_into_an_expression_is_refused(node, construct):
    expr = construct.format(node.text)
    with pytest.raises(ValueError, match="expression") as info:
        ExpressionFunction(expr, ("x",))
    assert repr(expr) in str(info.value)
