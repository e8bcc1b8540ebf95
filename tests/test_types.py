"""Kind and type machinery: reduction, substitution, equality, kinding."""

from conftest import compile_ok, supertypes

from choreo.checker import KindError
from choreo.types import (
    ROLE_KIND, RoleKind, StarKind, TAbs, TSym, TVar, app, fresh_var, pretty,
    reduce_type, roles_of_type, spine, substitute, type_equal,
)


def test_identity_abstraction_reduces():
    x = fresh_var("X", role=True)
    a = fresh_var("A", role=True)
    ident = TAbs(x, ROLE_KIND, x)
    assert reduce_type(app(ident, a)) == a


def test_reduce_is_idempotent():
    x = fresh_var("X", role=True)
    t = app(TAbs(x, ROLE_KIND, app(TSym("List"), x)), fresh_var("A", role=True))
    once = reduce_type(t)
    assert reduce_type(once) == once


def test_eta_contraction():
    x = fresh_var("X", role=True)
    t = TAbs(x, ROLE_KIND, app(TSym("Choice"), x))
    assert reduce_type(t) == TSym("Choice")


def test_substitution_is_capture_avoiding():
    x = fresh_var("X", role=True)
    y = fresh_var("Y", role=True)
    body = TAbs(y, ROLE_KIND, app(TSym("P"), x, y))
    out = substitute(body, {x.uid: y})
    out = reduce_type(app(out, fresh_var("Z", role=True)))
    head, args = spine(out)
    # The free y must survive; the bound y must have been renamed away.
    assert args[0].uid == y.uid
    assert args[1].uid != y.uid


def test_alpha_equality():
    x, y = fresh_var("X", role=True), fresh_var("Y", role=True)
    a = TAbs(x, ROLE_KIND, app(TSym("L"), x))
    b = TAbs(y, ROLE_KIND, app(TSym("L"), y))
    assert type_equal(a, b)


def test_roles_of_type():
    a, b = fresh_var("A", role=True), fresh_var("B", role=True)
    t = app(TSym("DiDataChannel"), a, b, TSym("String"))
    assert roles_of_type(t) == {"A", "B"}


def test_pretty_forms():
    a, b = fresh_var("A", role=True), fresh_var("B", role=True)
    assert pretty(app(TSym("String"), a)) == "String@A"
    assert pretty(app(TSym("SymChannel"), b, a, TSym("T"))) == "SymChannel@(B, A)<T>"


# ------------------------------------------------------------ kinding

def test_bare_role_kinds_to_role_kind():
    checked = compile_ok("class C@A { }")
    ck = checked._checker
    theta = ck.kind_env()
    role = checked.decl_info("C").role_vars[0]
    assert isinstance(ck.kind_of(theta, role), RoleKind)


def test_integer_applied_to_role_has_declared_bound():
    checked = compile_ok("class C@B { }")
    ck = checked._checker
    theta = ck.kind_env()
    b = checked.decl_info("C").role_vars[0]
    kind = ck.kind_of(theta, app(TSym("Integer"), b))
    assert isinstance(kind, StarKind)
    assert pretty(kind.bound) == "Number@B"


def test_channel_fully_applied_kinds_to_star():
    checked = compile_ok("class C@(A, B) { DiDataChannel@(A, B)<String> ch; }")
    ck = checked._checker
    theta = ck.kind_env()
    a, b = checked.decl_info("C").role_vars
    t = app(TSym("DiDataChannel"), a, b, TSym("String"))
    assert isinstance(ck.kind_of(theta, t), StarKind)


def test_kind_mismatch_is_detected():
    checked = compile_ok("class C@(A, B) { }")
    ck = checked._checker
    theta = ck.kind_env()
    a, b = checked.decl_info("C").role_vars
    # String expects one role; applying it twice is a kind error.
    try:
        ck.kind_of(theta, app(TSym("String"), a, b))
    except KindError:
        pass
    else:
        raise AssertionError("expected a kind error")


def test_bidata_channel_parents_swap_roles():
    checked = compile_ok("class C@(A, B) { BiDataChannel@(A, B)<String, Integer> ch; }")
    ck = checked._checker
    a, b = checked.decl_info("C").role_vars
    t = app(TSym("BiDataChannel"), a, b, TSym("String"), TSym("Integer"))
    supers = [pretty(s) for s in supertypes(ck, t)]
    assert "DiDataChannel@(A, B)<String>" in supers
    assert "DiDataChannel@(B, A)<Integer>" in supers
