"""Denotation, subtyping, bidirectional checking, and role constraints."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import compile_ok, compile_text, perfbench_gen, supertypes

import choreo
from choreo import surface as S
from choreo.checker import Checker, check_program, prelude_layer
from choreo.corpus import corpus_root, positive_entries
from choreo.diagnostics import Code, Reporter, Severity
from choreo.differential import differential_run
from choreo.pipeline import compile_files, front_end, load_prelude, prelude_names
from choreo.printer import render_unit
from choreo.projector import project_program
from choreo.types import (
    TSym, TVar, app, pretty, reduce_type, roles_of_type, spine, substitute,
)


def codes(reporter):
    return [d.code for d in reporter.errors]


def find_exp(checked, decl, method, predicate):
    info = checked.decl_info(decl)
    mi = [m for m in info.methods + info.constructors if m.name == method][0]
    for exp in S.walk_exps(mi.node.body):
        if predicate(exp):
            return exp
    raise AssertionError("expression not found")


# --------------------------------------------------------------- denotation

def test_denote_single_application():
    checked = compile_ok("class C@A { String@A f; }")
    te = checked.decl_info("C").node.fields[0].te
    t = checked.te_type(te)
    head, args = spine(t)
    assert head == TSym("String")
    assert len(args) == 1 and args[0].role


def test_denote_channel_type_nested_application():
    checked = compile_ok(
        "class C@(Client, Server) { DiDataChannel@(Client, Server)<String> ch; }")
    te = checked.decl_info("C").node.fields[0].te
    head, args = spine(checked.te_type(te))
    assert head == TSym("DiDataChannel")
    assert [a.name for a in args[:2]] == ["Client", "Server"]
    assert args[2] == TSym("String")


def test_denote_void():
    checked = compile_ok("class C@A { void m() { } }")
    info = checked.decl_info("C")
    te = info.methods[0].node.return_te
    assert pretty(checked.te_type(te)) == "void"


def test_unknown_type_name():
    _, reporter = compile_text("class C@A { Bogus@A f; }")
    assert Code.UnknownName in codes(reporter)


@pytest.mark.parametrize("member, col", [
    ("List@A f;", 13),
    ("void m() { List@A l = null@A; }", 24),
    ("void m(List@A l) { }", 20),
    ("List@A m() { return null@A; }", 13),
])
def test_a_generic_type_without_its_type_arguments_is_rejected(member, col):
    # Choral, like Java, has no raw types.
    _, reporter = compile_text(f"class C@A {{ {member} }}")
    assert [(d.code, d.span.col, d.message) for d in reporter.items] == [
        (Code.KindMismatch, col, "'List' takes 1 type argument(s), 0 given.")]


# --------------------------------------------------------------- subtyping

def test_subtyping_is_reflexive_and_transitive_on_corpus_closure():
    checked = compile_ok("class C@(A, B)<T@X> { SymChannel@(A, B)<T> ch; }")
    ck = checked
    info = checked.decl_info("C")
    a, b = info.role_vars
    t = info.ftps[0].var
    seed = app(TSym("SymChannel"), a, b, t)
    closure = supertypes(ck, seed)
    assert pretty(closure[0]) == pretty(seed) and len(closure) > 1
    for x in closure:
        assert ck.is_subtype(x, x)
    for x in closure:
        for y in closure:
            for z in closure:
                if ck.is_subtype(x, y) and ck.is_subtype(y, z):
                    assert ck.is_subtype(x, z), (pretty(x), pretty(y), pretty(z))


def test_type_arguments_are_invariant():
    checked = compile_ok("class C@A { }")
    ck = checked
    a = checked.decl_info("C").role_vars[0]
    lst_int = app(TSym("List"), a, TSym("Integer"))
    lst_num = app(TSym("List"), a, TSym("Number"))
    assert not ck.is_subtype(lst_int, lst_num)


def test_the_prelude_layer_sets_the_facts_of_the_prelude_and_compiles_keep_them():
    layer = prelude_layer(load_prelude().decls)
    infos = list(layer.table.values())
    methods = [mi for info in infos for mi in info.methods + info.constructors]

    def facts():
        return ([(info.scope, info.supers) for info in infos]
                + [(mi.scope, mi.params, mi.returns) for mi in methods])

    before = facts()
    assert infos and methods
    assert all(f is not None and f is not ... for entry in before for f in entry)
    for prog in positive_entries():
        checked, reporter = compile_files([prog.path])
        assert not reporter.has_errors()
        assert all(checked.table[info.name] is info for info in infos)
    assert all(a is b for old, new in zip(before, facts()) for a, b in zip(old, new))


def test_supertype_closures_of_the_prelude_and_the_corpus_keep_their_entries(corpus_compiled):
    # One line per declaration, the prelude's once: each closure entry at
    # the declaration's own formals, as ``pretty`` prints it.
    lines = []
    for i, (name, (_, checked, _)) in enumerate(corpus_compiled.items()):
        ck = checked
        for info in checked.table.values():
            if info.is_prelude and i:
                continue
            entries = [pretty(reduce_type(substitute(ck.self_type(sup), subst)))
                       for sup, subst in ck.supertype_closure(info)]
            lines.append(f"{'<prelude>' if info.is_prelude else name} {info.name}: "
                         + ", ".join(entries))
    assert ("<prelude> BiChannel: BiChannel@(A, B)<T, R>, DiChannel@(A, B)<T>, "
            "DiChannel@(B, A)<R>, BiDataChannel@(A, B)<T, R>, SymSelectChannel@(A, B), "
            "DiDataChannel@(A, B)<T>, DiSelectChannel@(A, B), DiDataChannel@(B, A)<R>, "
            "DiSelectChannel@(B, A)") in lines
    assert len(lines) == 71
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "fa526734c72b38fc"


def test_null_is_bottom_at_its_role_list():
    checked = compile_ok("""
    class C@(A, B) {
        void m(SymChannel@(A, B)<Object> ch) {
            Object@A x = null@A;
        }
    }
    """)
    _, reporter = compile_text("""
    class C@(A, B) {
        void m() {
            Object@A x = null@B;
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)


# ------------------------------------------------------------ synth / check

def test_literal_synthesises_located_string():
    checked = compile_ok('class C@A { void m() { String@A s = "foo"@A; } }')
    exp = find_exp(checked, "C", "m", lambda e: isinstance(e, S.Literal))
    assert pretty(checked.type_of(exp)) == "String@A"


def test_com_moves_to_receiver_role():
    checked = compile_ok("""
    class C@(Client, IP) {
        void m(SymChannel@(Client, IP)<Object> ch, String@Client u) {
            String@IP got = ch.<String>com(u);
        }
    }
    """)
    exp = find_exp(checked, "C", "m",
                   lambda e: isinstance(e, S.Call) and e.name == "com")
    assert pretty(checked.type_of(exp)) == "String@IP"


def test_select_returns_enum_at_receiver():
    checked = compile_ok("""
    enum Choice@R { GO, STOP }
    class C@(A, B) {
        void m(DiChannel@(A, B)<String> ch) {
            ch.<Choice>select(Choice@A.GO);
        }
    }
    """)
    exp = find_exp(checked, "C", "m",
                   lambda e: isinstance(e, S.Call) and e.name == "select")
    assert pretty(checked.type_of(exp)) == "Choice@B"


def test_iterator_guard_type():
    checked = compile_ok("""
    class C@A {
        void m(Iterator@A<String> it) {
            if (it.hasNext()) { }
        }
    }
    """)
    exp = find_exp(checked, "C", "m",
                   lambda e: isinstance(e, S.Call) and e.name == "hasNext")
    assert pretty(checked.type_of(exp)) == "Boolean@A"


def test_binary_operands_must_share_a_role():
    _, reporter = compile_text("""
    class C@(A, B) {
        void m() {
            Integer@A x = 1@A + 1@B;
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)


def test_an_operator_names_what_its_operands_lack():
    _, reporter = compile_text("""
    class C@(A, B)<T@X> {
        void m(Boolean@A g, T@A t) {
            String@A s = "x"@A + 3@A;
            Integer@A x = 1@A + 1@B;
            Boolean@A b = g < g;
            Boolean@A e = t == t;
        }
    }
    """)
    assert [(d.span.line, d.message, d.expecting, d.found) for d in reporter.items] == [
        (4, "operator '+' cannot be applied to 'String@A' and 'Integer@A'.", None, None),
        (5, "operator '+' needs both operands at one shared role,", "Integer@A", "Integer@B"),
        (6, "operator '<' cannot be applied to 'Boolean@A' and 'Boolean@A'.", None, None),
        (7, "operator '==' cannot be applied to 'T@A' and 'T@A'.", None, None),
    ]


def test_incompatible_types_message_shape():
    _, reporter = compile_text('class C@A { void m() { Integer@A x = "foo"@A; } }')
    diag = [d for d in reporter.errors if d.code is Code.TypeMismatch][0]
    assert diag.expecting == "Integer@A"
    assert diag.found == "String@A"
    rendered = diag.render()
    assert "Incompatible types" in rendered and "expecting" in rendered
    assert "^" in rendered


def test_nil_checks_against_any_return_type():
    compile_ok("class C@A { void m() { } }")
    compile_ok("abstract class D@A { abstract Integer@A k(); }")


def test_return_subtype_is_accepted():
    compile_ok("""
    class C@A {
        List@A<Integer> m() {
            ArrayList@A<Integer> a = new ArrayList@A<Integer>();
            return a;
        }
    }
    """)


def test_guard_must_be_boolean_at_one_role():
    _, reporter = compile_text("""
    class C@A {
        void m(Integer@A n) {
            if (n) { }
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)


def test_switch_requires_enum_guard_and_known_cases():
    _, reporter = compile_text("""
    class C@A {
        void m(Integer@A n) {
            switch (n) { default -> { } }
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)
    _, reporter = compile_text("""
    enum E@R { ONE }
    class C@A {
        void m(E@A e) {
            switch (e) { case TWO -> { } }
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)
    # "GO" is a string, not the case GO, which the oracle ran it as.
    _, reporter = compile_text("""
    enum Choice@R { GO, STOP }
    class C@R {
        void m(Choice@R c) {
            switch (c) { case "GO" -> { } default -> { } }
        }
    }
    """)
    assert [(d.code, d.message) for d in reporter.errors] == [
        (Code.TypeMismatch, "switch cases must name enum cases.")]


def test_method_returning_wrong_role_is_rejected():
    _, reporter = compile_text("""
    class C@(A, B) {
        String@A round(SymChannel@(A, B)<Object> ch, String@A m) {
            return ch.<String>com(m);
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)


def test_var_decl_extends_environment_in_continuation():
    compile_ok("""
    class C@A {
        void m() {
            Integer@A x = 1@A;
            Integer@A y = x + 1@A;
        }
    }
    """)


def test_unknown_variable():
    _, reporter = compile_text("class C@A { void m() { Integer@A x = y; } }")
    assert Code.UnknownName in codes(reporter)


# ------------------------------------------------------ overload resolution

def test_most_specific_method_single_candidate():
    compile_ok("""
    class C@A {
        Integer@A twice(Integer@A x) { return x + x; }
        void m() { Integer@A r = twice(2@A); }
    }
    """)


def test_most_specific_prefers_narrower_parameter():
    checked = compile_ok("""
    class C@A {
        Integer@A pick(Object@A x) { return 1@A; }
        Integer@A pick(String@A x) { return 2@A; }
        void m() { Integer@A r = pick(null@A); }
    }
    """)
    exp = find_exp(checked, "C", "m",
                   lambda e: isinstance(e, S.Call) and e.name == "pick")
    _, mi = checked.resolved[id(exp)]
    assert mi.node.params[0].te.name == "String"


def test_incomparable_overloads_are_ambiguous():
    _, reporter = compile_text("""
    class C@A {
        void pick(Object@A x, String@A y) { }
        void pick(String@A x, Object@A y) { }
        void m() { pick(null@A, null@A); }
    }
    """)
    assert Code.AmbiguousOverload in codes(reporter)


def test_no_applicable_method():
    _, reporter = compile_text("""
    class C@A {
        void m(List@A<Integer> l) { l.get("x"@A); }
    }
    """)
    assert Code.UnknownName in codes(reporter)


@pytest.mark.parametrize("body, message", [
    ('void m(List@A<Integer> l) { l.get("x"@A); }',
     "no applicable method 'get' for argument types (String@A)."),
    ("void m() { E@A e = new E@A(1@A); }",
     "no applicable constructor 'E' for argument types (Integer@A)."),
    ("void m() { E@A e = new E@A(null@A, null@A); }",
     "ambiguous invocation of 'E': no most specific overload."),
    ("void pick(Object@A x, String@A y) { } void pick(String@A x, Object@A y) { }"
     " void m() { pick(null@A, null@A); }",
     "ambiguous invocation of 'pick': no most specific overload."),
])
def test_unresolved_calls_name_the_method_or_the_class(body, message):
    _, reporter = compile_text(f"""
    class E@A {{
        public E() {{ }}
        public E(Object@A x, String@A y) {{ }}
        public E(String@A x, Object@A y) {{ }}
    }}
    class C@A {{ {body} }}
    """)
    assert [d.message for d in reporter.errors] == [message]


# Diagnostics no other test reaches: (code, line, column, message).
PINNED_DIAGNOSTICS = [
    ("class C@A { void m() { Foo@A.f(1@A); } }",
     [(Code.UnknownName, 1, 24, "unknown type 'Foo'.")]),
    ('class C@A { void m() { System@(A, A).out.println("x"@A); } }',
     [(Code.KindMismatch, 1, 24, "'System' takes 1 role parameter(s).")]),
    ("class C@(A, B) { static void s() { } void m() { C@(A, A).s(); } }",
     [(Code.UnusedRole, 1, 1, "role 'B' of 'C' is not used by any member or supertype."),
      (Code.RoleAliasing, 1, 49,
       "Illegal type instantiation: role 'A' must play exactly one role in 'C'.")]),
    ('class C@A { void m() { System@Z.out.println("x"@A); } }',
     [(Code.UnknownName, 1, 24, "unknown role 'Z'.")]),
    ("class C@A { void m() { super(); } }",
     [(Code.TypeMismatch, 1, 24, "'super(...)' is only allowed in constructors.")]),
    ("class C@A { C() { super(); } }",
     [(Code.TypeMismatch, 1, 19, "'C' has no superclass constructor.")]),
    ("class C@A { void m() { new Foo@A(); } }",
     [(Code.UnknownName, 1, 24, "unknown class 'Foo'.")]),
    ("class C@A { void m() { new ArrayList@A<Integer, String>(); } }",
     [(Code.KindMismatch, 1, 24, "'ArrayList' takes 1 type argument(s).")]),
    ("class C@A { void inst() { } static void m() { C@A.inst(); } }",
     [(Code.UnknownName, 1, 47, "no applicable method 'inst' for argument types ().")]),
    ("class C@(A, B) { void m(DiDataChannel@(A, B)<Integer> ch) { "
     "ch.<Integer, String>com(1@A); } }",
     [(Code.UnknownName, 1, 61, "no applicable method 'com' for argument types (Integer@A).")]),
    ("class C@A { void m(List@A<Integer> l) { l.<Integer>size(); } }",
     [(Code.UnknownName, 1, 41, "no applicable method 'size' for argument types ().")]),
    ("class C@A { void m() { Integer@A x = C@A; } }",
     [(Code.TypeMismatch, 1, 38, "'C' is a type, not a value.")]),
    ("class C@A { static void m() { C@A c = this; } }",
     [(Code.UnknownName, 1, 39, "'this' is not available in a static context.")]),
    ("class C@A { Integer@A m() { return; } }",
     [(Code.TypeMismatch, 1, 29, "Incompatible types:")]),
    ("class C@A { Integer@A f() { return 1@A; } void m() { f() = 1@A; } }",
     [(Code.TypeMismatch, 1, 54, "assignment target must be a variable or field.")]),
    ("class C@A { void m(List@A<Integer> l) { l += l; } }",
     [(Code.TypeMismatch, 1, 41,
       "operator '+=' needs a builtin operand type, found 'List@A<Integer>'.")]),
    ("class C@A { static Integer@A f; }",
     [(Code.TypeMismatch, 1, 13, "field 'f' in class 'C' cannot be static.")]),
]


@pytest.mark.parametrize("text,diagnostics", PINNED_DIAGNOSTICS)
def test_pinned_diagnostics(text, diagnostics):
    _, reporter = compile_text(text)
    assert [(d.code, d.span.line, d.span.col, d.message)
            for d in reporter.items] == diagnostics


def test_generic_method_needs_explicit_type_arguments():
    # A call that reports is resolved again at each site, which reports too.
    _, reporter = compile_text("""
    class C@(A, B) {
        void m(DiDataChannel@(A, B)<Object> ch, String@A s) {
            String@B r = ch.com(s);
            String@B q = ch.com(s);
        }
    }
    """)
    assert [(d.code, d.span.line) for d in reporter.items] == [
        (Code.TypeMismatch, 4), (Code.UnknownName, 4),
        (Code.TypeMismatch, 5), (Code.UnknownName, 5)]
    assert reporter.items[0].message == "'com' needs 1 explicit type argument(s)."


def test_calls_of_one_shape_resolve_alike_and_each_bad_one_reports():
    checked, reporter = compile_text("""
    class C@A {
        void m(List@A<Integer> l) {
            l.get("x"@A);
            l.get(0@A);
            l.get("x"@A);
            l.get(1@A);
        }
    }
    """)
    assert [(d.code, d.span.line) for d in reporter.items] == [
        (Code.UnknownName, 4), (Code.UnknownName, 6)]
    calls = [e for e in S.walk_exps(checked.decl_info("C").methods[0].node.body)
             if isinstance(e, S.Call)]
    assert [id(e) in checked.resolved for e in calls] == [False, True, False, True]
    assert checked.resolved[id(calls[1])] == checked.resolved[id(calls[3])]
    assert checked.type_of(calls[1]) == checked.type_of(calls[3])


def test_a_call_that_resolves_despite_a_bad_type_argument_reports_at_every_site():
    checked, reporter = compile_text("""
    class C@(A, B) {
        <T@X> void f(Integer@A x) { }
        void m() {
            this.<DiSelectChannel@(A, B)>f(1@A);
            this.<DiSelectChannel@(A, B)>f(1@A);
        }
    }
    """)
    assert [(d.code, d.span.line, d.message) for d in reporter.items] == [
        (Code.KindMismatch, line,
         "type argument 'DiSelectChannel@(A, B)' has 2 role(s), expected 1.")
        for line in (5, 6)]
    calls = [e for e in S.walk_exps(checked.decl_info("C").methods[1].node.body)
             if isinstance(e, S.Call)]
    assert [checked.resolved[id(e)][1].name for e in calls] == ["f", "f"]


def test_every_corpus_call_resolves_as_it_does_without_the_memo(monkeypatch):
    def calls(checked):
        for info in checked.table.values():
            if not info.is_prelude:
                for mi in info.methods + info.constructors:
                    yield from (e for e in S.walk_exps(mi.node.body) if isinstance(e, S.Call))

    def resolved(program):
        checked, reporter = check_program(program, Reporter(), prelude_names())
        assert not reporter.has_errors()
        return [(kind, mi.owner.name, mi.node, pretty(checked.type_of(e)))
                for e in calls(checked) for kind, mi in [checked.resolved[id(e)]]]

    resolve = Checker.resolve_invocation

    def unmemoised(self, *args, **kwargs):
        self._calls.clear()  # every call resolved afresh
        return resolve(self, *args, **kwargs)

    gen = perfbench_gen()
    programs = [(prog.name, [(str(prog.path), prog.path.read_text())])
                for prog in positive_entries()]
    programs += [(f"DistAuth{n}", [(f"DistAuth{n}.chor", gen.distauth_source(n))])
                 for n in range(2, 21)]
    for name, sources in programs:
        program, _ = front_end(sources)
        memoised = resolved(program)
        with monkeypatch.context() as m:
            m.setattr(Checker, "resolve_invocation", unmemoised)
            assert resolved(program) == memoised, name
        assert memoised, name


def test_calls_that_differ_only_in_their_roles_share_one_resolution():
    checked, reporter = compile_text("""
    class AuthToken@R {
        public AuthToken() { }
    }
    class D@(S1, S2, IP) {
        void m(SymChannel@(S1, IP)<Object> ch1, SymChannel@(S2, IP)<Object> ch2,
               AuthToken@IP t) {
            AuthToken@S1 a = ch1.<AuthToken>com(t);
            AuthToken@S2 b = ch2.<AuthToken>com(t);
        }
    }
    """)
    assert not reporter.items
    calls = [e for e in S.walk_exps(checked.decl_info("D").methods[0].node.body)
             if isinstance(e, S.Call)]
    assert [pretty(checked.type_of(e)) for e in calls] == ["AuthToken@S1", "AuthToken@S2"]
    assert checked.resolved[id(calls[0])] == checked.resolved[id(calls[1])]
    assert len(checked._calls) == 1


@pytest.mark.parametrize("overloads, calls, picked", [
    # Two role patterns of one shape: the same role twice, and two roles.
    ("Integer@A f(Integer@A x, Integer@A y) { return x; }\n"
     "    Integer@B f(Integer@A x, Integer@B y) { return y; }",
     ["f(1@A, 2@A)", "f(1@A, 2@B)"], ["Integer@A", "Integer@B"]),
    # A null literal names its roles, which number as the role variables do.
    ("Integer@A h(String@A s) { return 1@A; }\n"
     "    Integer@B h(String@B s) { return 1@B; }",
     ["h(null@A)", "h(null@B)"], ["Integer@A", "Integer@B"]),
])
def test_calls_with_different_role_patterns_resolve_apart(overloads, calls, picked):
    checked, reporter = compile_text(f"""
    class C@(A, B) {{
        {overloads}
        void m() {{ {"; ".join(calls)}; }}
    }}
    """)
    assert not reporter.items
    info = checked.decl_info("C")
    found = [e for e in S.walk_exps(info.methods[2].node.body) if isinstance(e, S.Call)]
    assert [checked.resolved[id(e)][1] for e in found] == info.methods[:2]
    assert [pretty(checked.type_of(e)) for e in found] == picked
    assert len(checked._calls) == 2


def test_a_type_variable_whose_bound_names_a_role_is_resolved_at_each_site():
    # T@B is Foo@(B, B), whose g returns at B; T@A is Foo@(A, B), whose g
    # also returns at B, not at A, as a renaming of B to A would say.
    checked, reporter = compile_text("""
    class Foo@(P, Q) {
        Integer@P f() { return 1@P; }
        Integer@Q g() { return 1@Q; }
    }
    class C@(A, B)<T@X extends Foo@(X, B)> {
        Integer@B m(T@B b, T@A a) {
            Integer@B x = b.g();
            return a.g();
        }
    }
    """)
    assert not reporter.items
    calls = [e for e in S.walk_exps(checked.decl_info("C").methods[0].node.body)
             if isinstance(e, S.Call)]
    assert [pretty(checked.type_of(e)) for e in calls] == ["Integer@B", "Integer@B"]
    assert len(checked._calls) == 0


def test_a_call_that_mentions_a_type_variable_is_resolved_at_each_site(monkeypatch):
    # Neither T nor its list names a role in a bound, yet each call is
    # resolved afresh, and as it is without the memo.
    text = """
    class C@A {
        <T@X> T@A first(List@A<T> l, List@A<T> k) {
            T@A x = l.get(0@A);
            return k.get(1@A);
        }
    }
    """

    def resolutions():
        checked, reporter = compile_text(text)
        assert not reporter.items
        calls = [e for e in S.walk_exps(checked.decl_info("C").methods[0].node.body)
                 if isinstance(e, S.Call)]
        return checked, [(checked.resolved[id(e)], pretty(checked.type_of(e))) for e in calls]

    checked, memoised = resolutions()
    assert [t for _, t in memoised] == ["T@A", "T@A"]
    assert len(checked._calls) == 0
    resolve = Checker.resolve_invocation

    def unmemoised(self, *args, **kwargs):
        self._calls.clear()
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(Checker, "resolve_invocation", unmemoised)
    assert resolutions()[1] == memoised


def test_two_calls_with_a_partially_applied_type_argument_share_one_resolution():
    # Each List<Integer> abstracts over a fresh binder: the key numbers
    # binders by depth.
    checked = compile_ok("""
    class C@(A, B) {
        void m(DiDataChannel@(A, B)<Object> ch, List@A<Integer> l) {
            List@B<Integer> x = ch.<List<Integer>>com(l);
            List@B<Integer> y = ch.<List<Integer>>com(l);
        }
    }
    """)
    assert len(checked._calls) == 1


def test_a_null_argument_resolves_under_its_own_role_names(monkeypatch):
    # Box@P<List<Integer>> abstracts over a binder named after List's role A.
    # The two calls are one shape up to renaming A and B, and must resolve
    # as each does alone.
    text = """
    class Box@R<T@Y> { }
    class K@(P, Q) {
        void h(Box@P<List<Integer>> b) { }
        void go(Integer@Q q) { }
    }
    class C@(A, B) {
        void m(K@(A, B) x, K@(B, A) y) {
            x.h(null@A);
            y.h(null@B);
        }
    }
    """

    def diagnostics():
        _, reporter = compile_text(text)
        return [(d.code, d.span.line, d.message) for d in reporter.items]

    memoised = diagnostics()
    resolve = Checker.resolve_invocation

    def unmemoised(self, *args, **kwargs):
        self._calls.clear()
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(Checker, "resolve_invocation", unmemoised)
    assert memoised == diagnostics()


def test_a_null_argument_fits_a_type_whose_binder_is_named_after_another_role():
    # List<Integer> abstracts over a binder named after List's role A, which
    # is no role of Box@B<List<Integer>>: null@B fits it as null@A fits
    # Box@A<List<Integer>>.
    for role in ("A", "B"):
        compile_ok(f"""
        class Box@R<T@Y> {{ }}
        class C@{role} {{
            void h(Box@{role}<List<Integer>> b) {{ }}
            void m() {{ h(null@{role}); }}
        }}
        """)


def test_a_supertype_s_binders_are_none_of_its_roles():
    # Foo@(P, Q)<List<Integer>> involves P and Q; its binder, named after
    # List's role A, is not a role it involves.
    for roles in ("P, Q", "A, B"):
        compile_ok(f"""
        interface Foo@(X, Y)<T@Z> {{ }}
        class K@({roles}) implements Foo@({roles})<List<Integer>> {{ }}
        """)


def test_the_sort_and_distauth20_calls_resolve_once_per_shape_up_to_their_roles():
    sort = compile_files([corpus_root() / "positive" / f"{name}.chor"
                          for name in ("MergeSort", "QuickSort")])[0]
    distauth = compile_ok(perfbench_gen().distauth_source(20), "DistAuth20.chor")
    assert (len(sort._calls), len(distauth._calls)) == (26, 12)


def test_com_bound_violation_is_rejected():
    # DiDataChannel<String> cannot transmit an Integer.
    _, reporter = compile_text("""
    class C@(A, B) {
        void m(DiDataChannel@(A, B)<String> ch, Integer@A n) {
            Integer@B r = ch.<Integer>com(n);
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)


# -------------------------------------------------------- role constraints

def test_role_aliasing_in_any_instantiation():
    _, reporter = compile_text("""
    interface I@(A, B) { void m(DiChannel@(A, A)<String> channel); }
    """)
    diag = [d for d in reporter.errors if d.code is Code.RoleAliasing][0]
    assert "must play exactly one role" in diag.message


def test_cyclic_inheritance_regardless_of_role_permutation():
    _, reporter = compile_text("""
    interface Loop@(A, B)<T@X> extends Loop@(B, A)<T> { }
    """)
    diag = [d for d in reporter.errors if d.code is Code.CyclicInheritance][0]
    assert "Cyclic inheritance" in diag.message


def test_supertype_must_preserve_role_set():
    _, reporter = compile_text("""
    interface Audited@(A, B, Auditor)<T@X> extends DiChannel@(A, B)<T> {
        <S@Y extends T@Y> S@Auditor audit(S@A m);
    }
    """)
    assert Code.RoleSetMismatch in codes(reporter)


def test_overload_clash_per_role():
    _, reporter = compile_text("""
    class Foo@(A, B) {
        void m(Char@B x) { }
        void m(Char@A x) { }
        void m(Long@A x) { }
    }
    """)
    diag = [d for d in reporter.errors if d.code is Code.IllegalOverload][0]
    assert "the same signature for role 'B'" in diag.message


def test_role_distinct_overloads_are_fine():
    checked, reporter = compile_text("""
    class Foo@(A, B) {
        void m(Char@B x) { }
        void m(Char@A x) { }
    }
    """)
    assert Code.IllegalOverload not in codes(reporter)


def test_inherited_overload_clash():
    _, reporter = compile_text("""
    class Foo@(A, B) {
        void m(Char@A x) { }
    }
    class Bar@(A, B) extends Foo@(A, B) {
        void m(Long@A x) { }
    }
    """)
    assert Code.IllegalOverload in codes(reporter)


def test_only_an_own_method_clashes_with_an_inherited_one():
    # Mid's own m meets Base's at role B, where both take Unit; Leaf
    # inherits the pair and reports nothing of its own, also beside an own
    # method of another name.
    _, reporter = compile_text("""
    class Base@(A, B) { void m(Char@A x) { } }
    class Mid@(A, B) extends Base@(A, B) { void m(Long@A x) { } }
    class Leaf@(A, B) extends Mid@(A, B) { void k(Char@B x) { } }
    """)
    assert [(d.code, *d.span.source.line_col(d.span.start), d.message)
            for d in reporter.errors] == [
        (Code.IllegalOverload, 3, 44,
         "Illegal overload: 'm(Char@A x)' and 'm(Long@A x)' have the same signature "
         "for role 'B'.")]


def test_a_generic_method_overrides_one_of_the_same_signature():
    compile_ok("""
    class Base@A {
        public <S@X> S@A id(S@A m) { return m; }
    }
    class Sub@A extends Base@A {
        public <S@X> S@A id(S@A m) { return m; }
    }
    """)


# A class that implements a prelude channel interface's generic ``com``,
# naming its type parameter as the interface does or otherwise.
WRAP = """
class Wrap@(A, B)<T@X> implements DiDataChannel@(A, B)<T> {
    DiDataChannel@(A, B)<T> ch;
    public Wrap(DiDataChannel@(A, B)<T> ch) { this.ch = ch; }
    public <S@Y extends T@Y> S@B com(S@A m) { return ch.<S>com(m); }
}
class P@(A, B) {
    public static Integer@B go(DiDataChannel@(A, B)<Integer> ch) {
        Wrap@(A, B)<Integer> w = new Wrap@(A, B)<Integer>(ch);
        return w.<Integer>com(5@A);
    }
}
"""
WRAP2 = WRAP.replace("<S@Y extends T@Y> S@B com(S@A m) { return ch.<S>com(m); }",
                     "<V@Z extends T@Z> V@B com(V@A m) { return ch.<V>com(m); }")


@pytest.mark.parametrize("text", [WRAP, WRAP2], ids=["Wrap", "Wrap2"])
def test_a_class_implements_a_channel_interface_s_generic_com(text):
    compile_ok(text)


def test_a_protocol_sends_through_a_class_that_implements_a_channel_interface():
    checked = compile_ok(WRAP)
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors()
    cmp = differential_run(checked, "P", "go", channels={"ch": "k"}, local_program=units)
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns["B"] == 5


@pytest.mark.parametrize("impl, message", [
    ("public <V@X> V@A id(V@A m) { return m; }", None),
    # A type parameter with another bound is another signature.
    ("public <V@X extends Integer@X> V@A id(V@A m) { return m; }",
     "'K' does not implement abstract method 'id'."),
])
def test_an_abstract_generic_method_is_implemented_up_to_its_type_parameters(impl, message):
    _, reporter = compile_text(f"""
    interface I@A {{ <S@X> S@A id(S@A m); }}
    class K@A implements I@A {{ {impl} }}
    """)
    assert [d.message for d in reporter.items] == ([message] if message else [])


@pytest.mark.parametrize("ftp", ["", "<S@X> "])
def test_two_methods_of_one_signature_in_one_class_clash(ftp):
    _, reporter = compile_text(f"""
    class C@A {{
        {ftp}void m(Integer@A x) {{ }}
        {ftp}void m(Integer@A y) {{ }}
    }}
    """)
    assert [d.message for d in reporter.items] == [
        "Illegal overload: 'm(Integer@A y)' and 'm(Integer@A x)' have the same signature "
        "for role 'A'."]


def test_duplicate_declarations_rejected():
    _, reporter = compile_text("class C@A { } class C@A { }")
    assert Code.DuplicateName in codes(reporter)


def compile_outcome(name, text):
    """Diagnostics (code, line, column, message) and rendered units of one
    program; a fresh process runs this function's own source."""
    from choreo.pipeline import compile_sources
    from choreo.printer import render_unit
    from choreo.projector import project_program

    checked, reporter = compile_sources([(name, text)])
    rendered = []
    if not reporter.has_errors():
        units, reporter = project_program(checked, reporter)
        if not reporter.has_errors():
            rendered = [render_unit(u) for u in units.units]
    return {"diagnostics": [[d.code.value, d.span.line, d.span.col, d.message]
                            for d in reporter.items],
            "rendered": rendered}


CHOICE_TWO = """enum Choice@R { LEFT, RIGHT }

class Pick@(A, B) {
    public static void go(DiSelectChannel@(A, B) ch, Choice@A c) {
        switch (ch.<Choice>select(c)) {
            case LEFT -> { System@B.out.println("left"@B); }
            default -> { System@B.out.println("right"@B); }
        }
    }
}
"""

CHOICE_THREE = """enum Choice@R { ONE, TWO, THREE }

class Count@(A, B) {
    public static void go(DiSelectChannel@(A, B) ch) {
        switch (ch.<Choice>select(Choice@A.THREE)) {
            case THREE -> { System@B.out.println("three"@B); }
            default -> { System@B.out.println("less"@B); }
        }
    }
}
"""

OWN_LIST = """interface List@A<T@X> { }

class Keep@A {
    public static List@A<Integer> keep(List@A<Integer> xs) { return xs; }
}
"""


def test_programs_compiled_in_one_process_match_fresh_processes():
    """The prelude is checked once per process; no program's declarations
    leak into the next one's compile."""
    from choreo.corpus import corpus_root

    root = corpus_root()
    programs = [("choice_two.chor", CHOICE_TWO), ("choice_three.chor", CHOICE_THREE),
                ("own_list.chor", OWN_LIST)]
    programs += [(str(path), path.read_text()) for path in (
        root / "positive" / "HelloRoles.chor", root / "negative" / "type_mismatch.chor",
        root / "positive" / "ConsumeItems.chor")]
    here = [compile_outcome(name, text) for name, text in programs]
    script = (inspect.getsource(compile_outcome) + "\nimport json, sys\n"
              "print(json.dumps(compile_outcome(sys.argv[1], sys.stdin.read())))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(choreo.__file__).parents[1]))
    fresh = [subprocess.Popen([sys.executable, "-c", script, name], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for name, _ in programs]
    for (name, text), proc, outcome in zip(programs, fresh, here):
        out, _ = proc.communicate(text, timeout=60)
        assert proc.returncode == 0, name
        assert json.loads(out) == outcome, name
    assert [len(o["rendered"]) for o in here] == [3, 3, 0, 2, 0, 4]
    assert here[2]["diagnostics"] == [
        ["DuplicateName", 1, 1, "duplicate declaration of 'List'."]]
    assert [d[0] for d in here[4]["diagnostics"]] == ["TypeMismatch"]


def test_unused_role_warns_but_does_not_fail():
    checked, reporter = compile_text("class C@(A, B) { String@A f; }")
    assert not reporter.has_errors()
    assert any(d.code is Code.UnusedRole and d.severity is Severity.WARNING
               for d in reporter.items)


def test_a_role_written_only_in_the_last_method_is_used():
    _, reporter = compile_text("""
    class T@(A, B, C) {
        Integer@A a;
        String@B b;
        void m() { }
        void last() { System@C.out.println("c"@C); }
    }
    """)
    assert reporter.items == []


def test_a_role_written_nowhere_warns_once():
    _, reporter = compile_text("class U@(A, B, C) { Integer@A a; void m(String@B b) { } }")
    assert [(d.code, d.severity, d.message) for d in reporter.items] == [
        (Code.UnusedRole, Severity.WARNING,
         "role 'C' of 'U' is not used by any member or supertype.")]


def test_a_field_read_through_this_has_its_type_at_the_reading_class():
    # Sub passes its roles to Base swapped, so Base's Integer@A field is
    # Integer@Y in Sub, read through ``this`` or by its bare name; Sub's own
    # field keeps its declared type.
    checked = compile_ok("""
    class Base@(A, B) { Integer@A f; }
    class Sub@(X, Y) extends Base@(Y, X) {
        String@X own;
        Integer@Y inherited() { return this.f; }
        Integer@Y bare() { return f; }
        String@X mine() { return this.own; }
    }
    """)
    reads = {m: find_exp(checked, "Sub", m, lambda e: isinstance(e, (S.FieldAcc, S.Name))
                         and getattr(e, "ident", None) != "this")
             for m in ("inherited", "bare", "mine")}
    assert {m: pretty(checked.type_of(e)) for m, e in reads.items()} == {
        "inherited": "Integer@Y", "bare": "Integer@Y", "mine": "String@X"}
    _, reporter = compile_text("""
    class Base@(A, B) { Integer@A f; }
    class Sub@(X, Y) extends Base@(Y, X) { Integer@X g() { return this.f; } }
    """)
    assert [(d.code, d.message) for d in reporter.errors] == [
        (Code.TypeMismatch, "Incompatible types:")]


# ------------------------------------------------- selection annotations

def test_prelude_select_signature_is_accepted():
    checked = compile_ok("class C@A { }")
    # The prelude itself carries @SelectionMethod on select; compiling any
    # program would fail if the validation rejected it.
    assert checked.decl_info("DiSelectChannel") is not None


def test_selection_on_non_enum_is_rejected():
    _, reporter = compile_text("""
    interface Bad@(A, B) {
        @SelectionMethod
        String@B com2(String@A m);
    }
    """)
    assert Code.BadSelectionAnnotation in codes(reporter)


def test_selection_with_no_parameters_is_rejected():
    _, reporter = compile_text("""
    enum E@R { ONE }
    interface Bad@(A, B) {
        @SelectionMethod
        E@B probe();
    }
    """)
    assert Code.BadSelectionAnnotation in codes(reporter)


def test_selection_must_change_role():
    _, reporter = compile_text("""
    enum E@R { ONE }
    interface Bad@(A, B) {
        @SelectionMethod
        E@A echo(E@A m);
    }
    """)
    assert Code.BadSelectionAnnotation in codes(reporter)


# ---------------------------------------------------------------- rolesOf

def test_roles_of_te_single_annotation():
    checked = compile_ok("class C@A { String@A f; }")
    te = checked.decl_info("C").node.fields[0].te
    assert checked.roles_of(te) == {"A"}


def test_roles_of_channel_com_includes_both_roles():
    checked = compile_ok("""
    class C@(Client, IP) {
        void m(DiDataChannel@(Client, IP)<Object> ch, String@Client msg) {
            ch.<String>com(msg);
        }
    }
    """)
    exp = find_exp(checked, "C", "m",
                   lambda e: isinstance(e, S.Call) and e.name == "com")
    assert checked.roles_of(exp) == {"Client", "IP"}


def test_roles_of_literal():
    checked = compile_ok("class C@A { void m() { Integer@A x = 5@A; } }")
    exp = find_exp(checked, "C", "m", lambda e: isinstance(e, S.Literal))
    assert checked.roles_of(exp) == {"A"}


def test_roles_of_monotone_under_subterms(corpus_compiled):
    _, checked, _ = corpus_compiled["MergeSort"]
    info = checked.decl_info("Mergesort")
    for mi in info.methods:
        for exp in S.walk_exps(mi.node.body):
            if isinstance(exp, S.StaticRef):
                continue
            whole = checked.roles_of(exp)
            for sub in S.walk_exps(exp):
                if sub is exp or isinstance(sub, S.StaticRef):
                    continue
                assert checked.roles_of(sub) <= whole


def test_every_checked_expression_is_annotated(corpus_compiled):
    for name, (_, checked, _) in corpus_compiled.items():
        for info in checked.table.values():
            if info.is_prelude:
                continue
            for mi in info.methods + info.constructors:
                if mi.node.body is None:
                    continue
                for exp in S.walk_exps(mi.node.body):
                    if isinstance(exp, S.StaticRef):
                        continue
                    assert id(exp) in checked.exp_types, (name, info.name, mi.name)


def test_diagnostics_are_deterministic():
    src = """
    class C@(A, B) {
        void m(Char@B x) { }
        void m(Char@A x) { }
        void m(Long@A x) { }
        void k() { Integer@A y = "s"@A; }
    }
    """
    _, r1 = compile_text(src)
    _, r2 = compile_text(src)
    out1 = [(d.code, d.span.start, d.message) for d in r1.items]
    out2 = [(d.code, d.span.start, d.message) for d in r2.items]
    assert out1 == out2


def test_aliasing_invariant_on_accepted_corpus(corpus_compiled):
    for name, (_, checked, _) in corpus_compiled.items():
        for info in checked.table.values():
            if info.is_prelude:
                continue
            for te, scope in checked.member_tes_with_scope(info):
                assert len(set(te.roles)) == len(te.roles)


def test_multi_role_null_assignable_to_matching_role_list():
    compile_ok("""
    class Pair2@(A, B) {
        String@A left;
        public Pair2(String@A left) { this.left = left; }
    }
    class C@(A, B) {
        void m() {
            Pair2@(A, B) p = null@(A, B);
        }
    }
    """)
    _, reporter = compile_text("""
    class Pair2@(A, B) {
        String@A left;
        public Pair2(String@A left) { this.left = left; }
    }
    class C@(A, B) {
        void m() {
            Pair2@(A, B) p = null@A;
        }
    }
    """)
    assert Code.TypeMismatch in codes(reporter)


def test_constraint_errors_suppress_only_the_offending_declaration():
    _, reporter = compile_text("""
    interface Loop@(A, B)<T@X> extends Loop@(B, A)<T> { }
    class Fine@A {
        void m() {
            Integer@A x = "oops"@A;
        }
    }
    """)
    errs = codes(reporter)
    assert Code.CyclicInheritance in errs
    assert Code.TypeMismatch in errs  # Fine's body was still checked


# ------------------------------------------------------- per-program facts

def _outcome(text):
    """Diagnostics, then the rendered units if the program projects."""
    checked, reporter = compile_text(text)
    renders = None
    if not reporter.has_errors():
        units, reporter = project_program(checked, reporter)
        renders = [render_unit(u) for u in units.units]
    return [d.render() for d in reporter.items], renders, checked


def test_type_facts_belong_to_one_program():
    """Declarations of one program leave nothing behind for the next one
    that reuses their names with other members and role counts."""
    p = """
    class Box@A {
        Integer@A size() { return 1@A; }
    }
    class Use@(A, B) {
        static Integer@A go(Box@A b, DiChannel@(A, B)<Integer> ch) { return b.size(); }
    }
    """
    q = """
    class Box@(A, B) {
        String@B label(Integer@A n) { return "box"@B; }
    }
    class Use@(A, B) {
        static String@B go(Box@(A, B) b, DiChannel@(B, A)<String> ch) {
            return b.label(1@A);
        }
    }
    """
    q_bad = q.replace("b.label(1@A)", "b.size()")
    alone = [_outcome(q)[:2], _outcome(q_bad)[:2]]
    assert alone[0][1] is not None and alone[1][1] is None
    _, _, p_checked = _outcome(p)  # kept alive while Q compiles again
    assert p_checked is not None
    assert [_outcome(q)[:2], _outcome(q_bad)[:2]] == alone


def test_too_deeply_nested_expression_is_a_diagnostic(recursion_limit_1000):
    # The checker recurses once per expression level; at Python's default
    # limit a 2,000-term sum is reported, not raised.
    sum_exp = " + ".join(["1@A"] * 2000)
    checked, reporter = compile_text(f"class D@A {{ Integer@A m() {{ return {sum_exp}; }} }}")
    assert [(d.code, d.message) for d in reporter.items] == [
        (Code.InternalError, "'D' is nested too deeply to check.")]
