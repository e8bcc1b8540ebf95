"""Projection: golden listings, type-expression cases, erasure, printing."""

import functools
import hashlib

import pytest
from conftest import compile_ok, compile_text, perfbench_gen

from choreo import projector
from choreo import surface as S
from choreo.diagnostics import Code, Reporter
from choreo.differential import RunSpec, differential_run
from choreo.local import (
    LClass, LEnum, LInterface, LSwitch, LThrow, LocalUnit, stm_list,
)
from choreo.local_reader import parse_local_unit
from choreo.merging import normalize_stm
from choreo.printer import render_te, render_unit
from choreo.projector import Projector, generated_name, project_program, project_type
from choreo.types import TSym, app


def project_ok(text):
    checked = compile_ok(text)
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    return checked, units


def tokens(text):
    return text.replace("{", " { ").replace("}", " } ").split()


HELLO = """
class HelloRoles@(A, B) {
    public static void sayHello() {
        String@A a = "Hello from A"@A;
        String@B b = "Hello from B"@B;
        System@A.out.println(a);
        System@B.out.println(b);
    }
}
"""

HELLO_A = """
class HelloRoles_A {
    public static void sayHello() {
        String a = "Hello from A";
        System.out.println(a);
    }
}
"""

HELLO_B = """
class HelloRoles_B {
    public static void sayHello() {
        String b = "Hello from B";
        System.out.println(b);
    }
}
"""


def test_hello_roles_golden_units():
    _, units = project_ok(HELLO)
    assert tokens(render_unit(units.unit("HelloRoles_A"))) == tokens(HELLO_A)
    assert tokens(render_unit(units.unit("HelloRoles_B"))) == tokens(HELLO_B)


def test_name_derivation():
    assert generated_name("Foo", ["A"], "A") == "Foo"
    assert generated_name("Foo", ["A", "B"], "A") == "Foo_A"
    _, units = project_ok("class Solo@Me { void m() { } }")
    assert units.unit("Solo") is not None


def test_unit_count_equals_role_count(corpus_compiled):
    for name, (_, checked, units) in corpus_compiled.items():
        for info in checked.table.values():
            if info.is_prelude:
                continue
            produced = [u for u in units.units if u.source_name == info.name]
            assert len(produced) == len(info.role_names), info.name
            assert len({u.generated_name for u in produced}) == len(produced)


def test_role_erasure_is_total(corpus_compiled):
    for name, (_, checked, units) in corpus_compiled.items():
        for unit in units.units:
            for node in S.walk(unit.decl):
                assert not isinstance(node, S.Node), (name, unit.generated_name)
                assert not hasattr(node, "roles")


# ---------------------------------------------------------------- projectTE

def te_cases_checked():
    return compile_ok("""
    class Carrier@(Client, Service, IP)<T@X> {
        DiDataChannel@(Client, Service)<T> ch;
        String@Client s;
        Optional@Service<String> o;
    }
    """)


def test_project_te_own_single_role():
    checked = te_cases_checked()
    ck = checked
    info = checked.decl_info("Carrier")
    client = info.role_vars[0]
    assert render_te(project_type(ck, app(TSym("String"), client), "Client")) == "String"


def test_project_te_positional_suffix():
    checked = te_cases_checked()
    ck = checked
    info = checked.decl_info("Carrier")
    client, service, _ = info.role_vars
    t = app(TSym("DiDataChannel"), client, service, info.ftps[0].var)
    assert render_te(project_type(ck, t, "Client")) == "DiDataChannel_A<T>"
    assert render_te(project_type(ck, t, "Service")) == "DiDataChannel_B<T>"


def test_project_te_absent_role_is_unit():
    checked = te_cases_checked()
    ck = checked
    info = checked.decl_info("Carrier")
    service = info.role_vars[1]
    t = app(TSym("Optional"), service, TSym("AuthTokenish"))
    assert render_te(project_type(ck, t, "Client")) == "Unit"


# ------------------------------------------------------------ declarations

def test_bipair_projection_keeps_only_local_field():
    _, units = project_ok("""
    class BiPair@(A, B)<L@X, R@Y> {
        private L@A left;
        private R@B right;
        public BiPair(L@A left, R@B right) {
            this.left = left;
            this.right = right;
        }
        public L@A left() { return this.left; }
        public R@B right() { return this.right; }
    }
    """)
    a = units.unit("BiPair_A").decl
    assert [f.name for f in a.fields] == ["left"]
    right = [m for m in a.methods if m.name == "right"][0]
    body = stm_list(right.body)
    assert len(body) == 1
    from choreo.printer import render_stm
    assert render_stm(right.body, 0) == ["return Unit.id;"]


def test_a_type_parameter_bound_at_two_roles_has_one_view_per_binder():
    # P's views P_X and P_Y each take their binder's view of the bound, and
    # a field typed P at (A, B) takes, at each role, the view of the binder
    # in that position.
    _, units = project_ok("""
    class Pair@(X, Y)<T@Z> { T@X left; T@Y right; }
    class Holder@(A, B)<P@(X, Y) extends Pair@(X, Y)<Integer>> { P@(A, B) p; }
    """)
    head = "<P_X extends Pair_X<Integer>, P_Y extends Pair_Y<Integer>>"
    assert render_unit(units.unit("Holder_A")) == f"class Holder_A{head} {{\n    P_X p;\n}}\n"
    assert render_unit(units.unit("Holder_B")) == f"class Holder_B{head} {{\n    P_Y p;\n}}\n"


def test_an_assignment_keeps_its_effects_at_a_role_that_is_not_its_targets():
    checked, units = project_ok("""
    class M@(A, B) {
        public static Integer@A go(DiChannel@(B, A)<Integer> ch) {
            Integer@A x = 0@A;
            x = ch.<Integer>com(5@B);
            return x;
        }
    }
    """)
    assert "        ch.<Integer>com(5);\n" in render_unit(units.unit("M_B"))
    cmp = differential_run(checked, "M", "go", channels={"ch": "k"}, local_program=units)
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns["A"] == 5


def test_enum_projects_unsuffixed_with_cases():
    _, units = project_ok("enum Choice@A { GO, STOP }")
    decl = units.unit("Choice").decl
    assert isinstance(decl, LEnum)
    assert decl.cases == ["GO", "STOP"]


def test_interface_projection_splits_signatures():
    _, units = project_ok("""
    interface Pipe@(A, B)<T@X> extends DiDataChannel@(A, B)<T> {
        <S@Y extends T@Y> S@B shuttle(S@A m);
    }
    """)
    a = units.unit("Pipe_A").decl
    b = units.unit("Pipe_B").decl
    assert isinstance(a, LInterface)
    sig_a = [m for m in a.methods if m.name == "shuttle"][0]
    sig_b = [m for m in b.methods if m.name == "shuttle"][0]
    assert render_te(sig_a.return_te) == "Unit"
    assert render_te(sig_a.params[0].te) == "S"
    assert render_te(sig_b.return_te) == "S"
    assert render_te(sig_b.params[0].te) == "Unit"
    assert [render_te(t) for t in a.extends] == ["DiDataChannel_A<T>"]


# ------------------------------------------------------- selection + merge

CONSUME = """
enum Choice@R { GO, STOP }
class ConsumeItems@(A, B) {
    private DiChannel@(A, B)<String> ch;
    public ConsumeItems(DiChannel@(A, B)<String> ch) { this.ch = ch; }
    public void consumeItems(Iterator@A<String> it, Consumer@B<String> consumer) {
        if (it.hasNext()) {
            ch.<Choice>select(Choice@A.GO);
            it.next() >> ch::<String>com >> consumer::accept;
            consumeItems(it, consumer);
        } else {
            ch.<Choice>select(Choice@A.STOP);
        }
    }
}
"""


def selection_switches(decl):
    out = []
    for m in decl.methods:
        if m.body is None:
            continue
        for node in S.walk(m.body):
            if isinstance(node, LSwitch):
               out.append(node)
    return out


def test_fixed_consume_items_projects_merged_switch():
    _, units = project_ok(CONSUME)
    b = units.unit("ConsumeItems_B").decl
    switches = selection_switches(b)
    assert len(switches) == 1
    sw = switches[0]
    assert sorted(label for label, _ in sw.cases) == ["GO", "STOP"]
    assert isinstance(sw.default, LThrow)


def test_wrong_consume_items_fails_merge_at_b():
    checked = compile_ok("""
    class WrongConsume@(A, B) {
        private DiChannel@(A, B)<String> ch;
        public WrongConsume(DiChannel@(A, B)<String> ch) { this.ch = ch; }
        public void consumeItems(Iterator@A<String> it, Consumer@B<String> consumer) {
            if (it.hasNext()) {
                it.next() >> ch::<String>com >> consumer::accept;
                consumeItems(it, consumer);
            }
        }
    }
    """)
    units, reporter = project_program(checked, Reporter())
    failures = [d for d in reporter.errors if d.code is Code.MergeFailure]
    assert len(failures) == 1
    assert "'B'" in failures[0].message
    assert failures[0].span.line == 6  # the conditional's span
    assert units.unit("WrongConsume_B") is None
    assert units.unit("WrongConsume_A") is not None


@pytest.mark.parametrize("then, orelse, pair", [
    ('System@B.out.println("pos"@B);', 'System@B.out.println("neg"@B);', """'"pos"' against '"neg"'"""),
    ("return y + 1@B;", "return y - 1@B;", "'y + 1' against 'y - 1'"),
], ids=["literal", "binary"])
def test_branches_differing_in_an_expression_are_a_merge_failure(then, orelse, pair):
    # The two branches differ at B only inside an expression, which the
    # report prints as an expression.
    returns = "Integer@B" if "return" in then else "void"
    checked = compile_ok(f"""public class NoChoice@(A, B) {{
    public static {returns} go(Integer@A x, Integer@B y) {{
        if (x > 0@A) {{ {then} }} else {{ {orelse} }}
    }}
}}""")
    units, reporter = project_program(checked, Reporter())
    assert [(d.code, d.span.line) for d in reporter.items] == [(Code.MergeFailure, 3)]
    assert reporter.items[0].message == (
        f"cannot merge the branches of this conditional for role 'B': {pair}. "
        "The roles taking the decision must inform 'B' via a selection.")
    assert units.unit("NoChoice_B") is None and units.unit("NoChoice_A") is not None


def test_failures_at_several_roles_are_reported_by_declaration_then_role():
    # Each conditional leaves a different role uninformed. A role's first
    # failure, in its own statement order, stops its unit, and only its
    # unit: the third conditional fails at B and C again, and is not
    # reported. The reports follow the declarations, then the roles.
    checked = compile_ok("""class Three@(A, B, C) {
    void m(Integer@A x) {
        if (x > 0@A) {
            if (x > 5@A) { System@C.out.println("c"@C); }
        }
        if (x > 1@A) { System@B.out.println("b"@B); }
        if (x > 2@A) { System@B.out.println("b2"@B); } else { System@C.out.println("c2"@C); }
    }
}
class Two@(A, B) {
    void n(Integer@B y) {
        if (y > 0@B) { System@A.out.println("a"@A); }
    }
}
class Fine@(A, B) {
    void k(Integer@A z) { System@B.out.println("k"@B); }
}""")
    units, reporter = project_program(checked, Reporter())

    def failure(line, col, role, printed):
        return (Code.MergeFailure, line, col,
                f"cannot merge the branches of this conditional for role '{role}': "
                f"'System.out.println(\"{printed}\");' against '<blank>'. The roles taking "
                f"the decision must inform '{role}' via a selection.")

    assert [(d.code, *d.span.source.line_col(d.span.start), d.message)
            for d in reporter.items] == [
        failure(6, 9, "B", "b"), failure(4, 13, "C", "c"), failure(12, 9, "A", "a")]
    assert [u.generated_name for u in units.units] == ["Three_A", "Two_B", "Fine_A", "Fine_B"]


def test_a_switch_is_projected_default_first_at_its_guard_role():
    # At A, which takes the switch's decision, the conditional in the case
    # and the one in the default both fail to merge; A projects the default
    # before the cases, so the default's is reported. At C, which projects
    # the cases first, the two bodies do not merge.
    checked = compile_ok("""enum Cmd@R { PING, QUIT }
class D@(A, C) { void m(Cmd@A c, Integer@C y) {
    switch (c) {
        case PING -> { if (y > 1@C) { System@A.out.println("x"@A); } }
        default -> { if (y > 2@C) { System@A.out.println("y"@A); } }
    }
} }""")
    units, reporter = project_program(checked, Reporter())
    assert [(d.code, *d.span.source.line_col(d.span.start), d.message)
            for d in reporter.items] == [
        (Code.MergeFailure, 5, 22, "cannot merge the branches of this conditional for role 'A': "
         "'System.out.println(\"y\");' against '<blank>'. The roles taking the decision must "
         "inform 'A' via a selection."),
        (Code.MergeFailure, 3, 5, "cannot merge the branches of this conditional for role 'C': "
         "'1' against '2'. The roles taking the decision must inform 'C' via a selection.")]
    assert [u.generated_name for u in units.units] == ["Cmd"]


def test_dist_auth_client_merged_switch_shape(corpus_compiled):
    _, checked, units = corpus_compiled["DistAuth"]
    client = units.unit("DistAuth_Client").decl
    auth = [m for m in client.methods if m.name == "authenticate"][0]
    switches = [n for n in S.walk(auth.body) if isinstance(n, LSwitch)]
    assert len(switches) == 1
    sw = switches[0]
    assert [label for label, _ in sw.cases] == ["OK", "KO"]
    assert isinstance(sw.default, LThrow)
    from choreo.printer import render_exp
    assert render_exp(sw.guard) == "ch_Client_IP.<AuthBranch>select(Unit.id)"


def test_variable_selection_label_is_rejected():
    checked = compile_ok("""
    enum Choice@R { GO, STOP }
    class VarLabel@(A, B) {
        void m(DiChannel@(A, B)<String> ch, Choice@A c) {
            ch.<Choice>select(c);
        }
    }
    """)
    units, reporter = project_program(checked, Reporter())
    assert any(d.code is Code.BadSelectionAnnotation for d in reporter.errors)


def test_checker_clash_rule_matches_projection(corpus_compiled):
    # Accepted classes never produce per-role signature collisions.
    for name, (_, checked, units) in corpus_compiled.items():
        for unit in units.units:
            decl = unit.decl
            if not isinstance(decl, (LClass, LInterface)):
                continue
            seen = {}
            for m in decl.methods:
                key = (m.name, tuple(render_te(p.te) for p in m.params))
                assert key not in seen, (unit.generated_name, key)
                seen[key] = m


# ---------------------------------------------------------------- printing

def test_courtesy_wrappers():
    _, units = project_ok("""
    interface Pipe@(A, B) {
        String@B fetch(String@A m);
    }
    class PipeImpl@(A, B) implements Pipe@(A, B) {
        public String@B fetch(String@A m) {
            return "x"@B;
        }
    }
    """)
    b = render_unit(units.unit("Pipe_B"), courtesy=True)
    assert "String fetch(Unit m);" in b
    assert "String fetch();" in b
    impl_b = render_unit(units.unit("PipeImpl_B"), courtesy=True)
    assert "String fetch() {" in impl_b
    assert "return fetch(Unit.id);" in impl_b
    # Without the option there is no wrapper.
    assert "String fetch();" not in render_unit(units.unit("Pipe_B"))


def test_printing_round_trips(corpus_compiled):
    gen = perfbench_gen()
    programs = [units for _, _, units in corpus_compiled.values()]
    for n in range(2, 21):
        checked = compile_ok(gen.distauth_source(n), f"DistAuth{n}.chor")
        programs.append(project_program(checked, Reporter())[0])
    count = 0
    for units in programs:
        for unit in units.units:
            text = render_unit(unit)
            reparsed = parse_local_unit(text, unit.generated_name)
            assert reparsed.decl == unit.decl, unit.generated_name
            assert render_unit(reparsed) == text, unit.generated_name
            count += 1
    assert count == 72 + 266


def test_rendering_is_deterministic(corpus_compiled):
    _, checked, _ = corpus_compiled["DistAuth"]
    one, _ = project_program(checked, Reporter())
    two, _ = project_program(checked, Reporter())
    for u1, u2 in zip(one.units, two.units):
        assert render_unit(u1) == render_unit(u2)


def test_provenance_annotations_on_request(corpus_compiled):
    _, checked, _ = corpus_compiled["VitalsStreaming"]
    units, _ = project_program(checked, Reporter(), annotate=True)
    unit = units.unit("VitalsStreamingTest_Device")
    pairs = dict(unit.decl.annotations[-1].args)
    assert unit.decl.annotations[-1].name == "Choreography"
    assert pairs == {"name": "VitalsStreamingTest", "role": "Device"}
    text = render_unit(unit)
    assert '@Choreography(name = "VitalsStreamingTest", role = "Device")' in text


def test_selection_switches_always_carry_default_throw(corpus_compiled):
    # Every switch generated by the selection rule ends in a default throw.
    from choreo.local import LCall

    for name, (_, checked, units) in corpus_compiled.items():
        for unit in units.units:
            decl = unit.decl
            if not hasattr(decl, "methods"):
                continue
            for m in decl.methods:
                if m.body is None:
                    continue
                for node in S.walk(m.body):
                    if isinstance(node, LSwitch) and isinstance(node.guard, LCall) \
                            and node.guard.name == "select":
                        assert isinstance(node.default, LThrow), unit.generated_name


SURFACE_SWITCH = """
enum Cmd@R { PING, QUIT }
class Dispatcher@(A, B) {
    void handle(SymChannel@(A, B)<Object> ch, Cmd@A cmd) {
        switch (cmd) {
            case PING -> {
                String@B got = ch.<String>com("ping"@A);
            }
PLACEHOLDER
        }
    }
}
"""


@pytest.mark.parametrize("after, found", [
    ('System@B.out.println("after"@B);', []),
    ('if (x > 1@A) { System@B.out.println("a"@B); } else { System@B.out.println("b"@B); }',
     [(Code.MergeFailure, 4)]),
], ids=["dropped", "still-projected"])
def test_what_follows_a_merged_return_is_dropped_but_still_projected(after, found):
    # Both branches return at B, so B's chain ends there; what follows is
    # unreachable, but its diagnostics are still reported.
    checked = compile_ok(f"""class D@(A, B) {{
    Integer@A m(Integer@A x) {{
        if (x > 0@A) {{ return 1@A; }} else {{ return 2@A; }}
        {after}
        return 3@A;
    }}
}}""")
    units, reporter = project_program(checked, Reporter())
    assert [(d.code, d.span.line) for d in reporter.items] == found
    if not found:
        assert tokens(render_unit(units.unit("D_B"))) == tokens(
            "class D_B { Unit m(Unit x) { return Unit.id; } }")


def test_surface_switch_without_default_merges_the_empty_path():
    # Role B must reconcile the PING body with the implicit no-match path,
    # which is impossible without a selection.
    src = SURFACE_SWITCH.replace("PLACEHOLDER", "")
    checked = compile_ok(src)
    units, reporter = project_program(checked, Reporter())
    assert any(d.code is Code.MergeFailure for d in reporter.errors)


def test_exhaustive_surface_switch_with_identical_bodies_projects():
    both = """
            case QUIT -> {
                String@B got = ch.<String>com("ping"@A);
            }
    """
    src = SURFACE_SWITCH.replace("PLACEHOLDER", both)
    checked = compile_ok(src)
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    # B performs the shared receive unconditionally.
    from choreo.printer import render_stm
    body = units.unit("Dispatcher_B").decl.methods[0].body
    assert any("com(Unit.id)" in line for line in render_stm(body, 0))


def test_unknown_annotations_are_preserved_through_projection():
    checked = compile_ok("""
    class Tagged@(A, B) {
        @Deprecated
        @Meta(level = 3)
        public void ping(SymChannel@(A, B)<Object> ch, String@A s) {
            String@B got = ch.<String>com(s);
        }
    }
    """)
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors()
    text = render_unit(units.unit("Tagged_A"))
    assert "@Deprecated" in text
    assert "@Meta(level = 3)" in text


def test_round_trip_compiled_listing_keeps_nested_coms(corpus_compiled):
    _, checked, units = corpus_compiled["RoundTrip"]
    from choreo.printer import render_stm
    a = units.unit("Courier_A").decl
    rt_a = [m for m in a.methods if m.name == "roundTrip"][0]
    assert render_stm(rt_a.body, 0) == ["return chBA.<T>com(chAB.<T>com(mesg));"]
    assert [render_te(p.te) for p in rt_a.params] == \
        ["DiDataChannel_A<T>", "DiDataChannel_B<T>", "T"]
    b = units.unit("Courier_B").decl
    rt_b = [m for m in b.methods if m.name == "roundTrip"][0]
    assert render_stm(rt_b.body, 0) == ["return chBA.<T>com(chAB.<T>com(Unit.id));"]
    assert [render_te(p.te) for p in rt_b.params] == \
        ["DiDataChannel_B<T>", "DiDataChannel_A<T>", "Unit"]


# ------------------------------------------------------------ many roles

@functools.lru_cache(maxsize=None)
def distauth(n):
    """``DistAuth<n>`` from the benchmark's generator, checked."""
    return compile_ok(perfbench_gen().distauth_source(n), f"DistAuth{n}.chor")


def project_ok_checked(checked):
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    return units


def test_statement_handler_calls_grow_linearly_with_roles(monkeypatch):
    # A role skips every statement that projects to nothing there, without
    # calling its handler, so the calls grow with the program, not with the
    # program times its roles.
    calls = []
    for cls, handler in projector.STM.items():
        def counted(p, stm, role, handler=handler):
            calls.append(cls)
            return handler(p, stm, role)
        monkeypatch.setitem(projector.STM, cls, counted)
    counts = []
    for n in (20, 40, 80):
        calls.clear()
        project_ok_checked(distauth(n))
        counts.append(len(calls))
    assert all(later <= 2.1 * earlier for earlier, later in zip(counts, counts[1:])), counts


def method_bodies(units):
    for unit in units.units:
        decl = unit.decl
        for m in getattr(decl, "constructors", []) + getattr(decl, "methods", []):
            if m.body is not None:
                yield unit.generated_name, m.name, m.body


def test_projected_bodies_are_unit_normal(corpus_compiled):
    # The projector builds normal forms directly, with no normalising pass.
    programs = [units for _, _, units in corpus_compiled.values()]
    programs += [project_ok_checked(distauth(n)) for n in (*range(2, 21), 40)]
    count = 0
    for units in programs:
        for unit, method, body in method_bodies(units):
            assert normalize_stm(body) == body, (unit, method)
            count += 1
    assert count > 1000


# The SHA-256 of the rendered units of DistAuth40, DistAuth80 and
# DistAuth160, which no change to how fast the projector works may alter.
RENDERED = {
    40: "f4f01953a6227e0ea9f8d35cef1a5f0958693361d54b0bdd7b16ec9d7c6742a9",
    80: "68b112c364f423b868975ed021d76763a5a86d08f6c61391d79d7113d7adafd8",
    160: "3c95a30d080bfd973fe7de472d0a6999e0b311a60e4799de0cb54284410386e9",
}


@pytest.mark.parametrize("n", sorted(RENDERED))
def test_many_role_units_render_as_recorded(n):
    units = project_ok_checked(distauth(n))
    assert len(units.units) == n + 3
    text = "".join(render_unit(unit) for unit in units.units)
    assert hashlib.sha256(text.encode()).hexdigest() == RENDERED[n]


def test_a_program_finds_each_unit_by_name_in_one_table():
    units = project_ok_checked(distauth(20))
    assert all(units.unit(u.generated_name) is u for u in units.units)
    assert units.unit("DistAuth20_Nobody") is None
    assert list(units.by_name.values()) == units.units


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_distauth40_runs_alike_in_both_evaluators(valid):
    gen = perfbench_gen()
    run = RunSpec(**gen.distauth_run(40, valid))
    cmp = differential_run(distauth(40), run.entry_class, run.entry_method, run.args,
                           run.channels, run.deadline)
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == gen.distauth_transcripts(40, valid)
