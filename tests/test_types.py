"""Type machinery: reduction, substitution, equality; well-formed type expressions."""

import pytest
from conftest import compile_ok, compile_text, supertypes

from choreo.diagnostics import Code
from choreo.types import (
    TAbs, TSym, app, fresh_var, pretty, reduce_type, roles_of_type, spine,
    substitute, type_equal,
)


def test_identity_abstraction_reduces():
    x = fresh_var("X", role=True)
    a = fresh_var("A", role=True)
    ident = TAbs(x, x)
    assert reduce_type(app(ident, a)) == a


def test_reduce_is_idempotent():
    x = fresh_var("X", role=True)
    t = app(TAbs(x, app(TSym("List"), x)), fresh_var("A", role=True))
    once = reduce_type(t)
    assert reduce_type(once) == once


def test_eta_contraction():
    x = fresh_var("X", role=True)
    t = TAbs(x, app(TSym("Choice"), x))
    assert reduce_type(t) == TSym("Choice")


def test_substitution_shares_a_term_it_leaves_unchanged():
    a = fresh_var("A", role=True)
    b = fresh_var("B", role=True)
    x = fresh_var("X", role=True)
    t = app(TSym("P"), a, TAbs(x, app(TSym("Q"), x)))
    assert substitute(t, {b.uid: a}) is t
    out = substitute(t, {a.uid: b})
    assert out is not t and out == app(TSym("P"), b, TAbs(x, app(TSym("Q"), x)))
    assert out.arg is t.arg  # the abstraction mentions no A


def test_substitution_is_capture_avoiding():
    x = fresh_var("X", role=True)
    y = fresh_var("Y", role=True)
    body = TAbs(y, app(TSym("P"), x, y))
    out = substitute(body, {x.uid: y})
    out = reduce_type(app(out, fresh_var("Z", role=True)))
    head, args = spine(out)
    # The free y must survive; the bound y must have been renamed away.
    assert args[0].uid == y.uid
    assert args[1].uid != y.uid


def test_alpha_equality():
    x, y = fresh_var("X", role=True), fresh_var("Y", role=True)
    a = TAbs(x, app(TSym("L"), x))
    b = TAbs(y, app(TSym("L"), y))
    assert type_equal(a, b)


def test_roles_of_type():
    a, b = fresh_var("A", role=True), fresh_var("B", role=True)
    t = app(TSym("DiDataChannel"), a, b, TSym("String"))
    assert roles_of_type(t) == {"A", "B"}


def test_pretty_forms():
    a, b = fresh_var("A", role=True), fresh_var("B", role=True)
    assert pretty(app(TSym("String"), a)) == "String@A"
    assert pretty(app(TSym("SymChannel"), b, a, TSym("T"))) == "SymChannel@(B, A)<T>"


# ------------------------------------------------- well-formed type expressions

# Where a type expression is written; ``{s}`` is the type under test. The
# first five are member types, the last three are in method bodies.
POSITIONS = {
    "field": "class C@A<T@X> {{ {s} f; }}",
    "parameter": "class C@A<T@X> {{ void m({s} p) {{ }} }}",
    "return": "class C@A<T@X> {{ {s} m() {{ return null@A; }} }}",
    "bound": "class C@A<T@X> {{ <S@Y extends {s}> void m() {{ }} }}",
    "supertype": "class C@A<T@X> {{ }} class E@A<T@X> extends {s} {{ }}",
    "local": "class C@A<T@X> {{ void m() {{ {s} x = null@A; }} }}",
    "new": "class C@A<T@X> {{ void m() {{ new C@A<{s}>(); }} }}",
    "call": "class C@A<T@X> {{ <S@Y> void f() {{ }} void m() {{ this.<{s}>f(); }} }}",
}
# A type variable given a type argument; a generic declaration given none,
# as an argument and as the argument of an argument; a declaration whose
# roles do not fit its formal and that is given no type argument; a type
# variable given a role too many.
ILL_FORMED = ["T@A<String>", "C@A<List>", "C@A<List<List>>", "C@A<DiDataChannel>", "T@(A, B)"]


@pytest.mark.parametrize("shape", ILL_FORMED)
@pytest.mark.parametrize("position", POSITIONS)
def test_an_ill_formed_type_is_reported_once_wherever_it_is_written(position, shape):
    _, reporter = compile_text(POSITIONS[position].format(s=shape))
    assert [d.code for d in reporter.items] == [Code.KindMismatch]


@pytest.mark.parametrize("position", POSITIONS)
def test_the_well_formed_types_check_wherever_they_are_written(position):
    for shape in ["C@A<List<String>>", "C@A<T>", "T@A", "C@A<ArrayList<Integer>>"]:
        compile_ok(POSITIONS[position].format(s=shape))


def test_a_type_argument_count_is_reported_at_the_innermost_type():
    text = POSITIONS["local"].format(s="C@A<List<List>>")
    _, reporter = compile_text(text)
    assert [(d.span.col, d.message) for d in reporter.items] == [
        (text.index("List>") + 1, "'List' takes 1 type argument(s), 0 given.")]
    _, reporter = compile_text(POSITIONS["field"].format(s="T@A<String>"))
    assert [d.message for d in reporter.items] == ["'T' takes 0 type argument(s), 1 given."]
    # A call's type argument is an argument too, before it is fitted to
    # the method's formal.
    _, reporter = compile_text(POSITIONS["call"].format(s="List"))
    assert [d.message for d in reporter.items] == ["'List' takes 1 type argument(s), 0 given."]


def test_kind_mismatch_is_detected():
    # String takes one role; applying it to two is a kind error.
    _, reporter = compile_text("class C@(A, B) { String@(A, B) f; }")
    assert [(d.code, d.message) for d in reporter.items] == [
        (Code.KindMismatch, "'String' takes 1 role parameter(s), 2 given.")]


def test_bidata_channel_parents_swap_roles():
    checked = compile_ok("class C@(A, B) { BiDataChannel@(A, B)<String, Integer> ch; }")
    ck = checked
    a, b = checked.decl_info("C").role_vars
    t = app(TSym("BiDataChannel"), a, b, TSym("String"), TSym("Integer"))
    supers = [pretty(s) for s in supertypes(ck, t)]
    assert "DiDataChannel@(A, B)<String>" in supers
    assert "DiDataChannel@(B, A)<Integer>" in supers
