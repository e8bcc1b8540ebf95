"""Edge coverage: try/catch projection, multi-file programs, kind errors,
randomised expression round-trips, and mutated corpus texts, which the
compiler must report on without raising."""

import random
import string

from conftest import compile_ok, compile_text
from hypothesis import example, given, settings, strategies as st

from choreo import surface as S
from choreo.corpus import corpus_root
from choreo.diagnostics import Code, Reporter
from choreo.lexer import KEYWORDS
from choreo.local import LTryCatch
from choreo.parser import parse_program
from choreo.pipeline import compile_sources
from choreo.projector import project_program
from choreo.printer import render_exp, render_unit
from choreo.surface import structurally_equal


def codes(reporter):
    return [d.code for d in reporter.errors]


# ------------------------------------------------------------- try/catch

def test_try_catch_projection_keeps_body_and_filters_handlers():
    checked = compile_ok("""
    class Risky@(A, B) {
        void m(SymChannel@(A, B)<Object> ch, String@A s) {
            try {
                String@B got = ch.<String>com(s);
            }
            catch (RuntimeException@A exA) {
                System@A.out.println("a failed"@A);
            }
            catch (RuntimeException@B exB) {
                System@B.out.println("b failed"@B);
            }
        }
    }
    """)
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors()

    def handlers_at(role):
        decl = units.unit(f"Risky_{role}").decl
        body = decl.methods[0].body
        tries = [n for n in S.walk(body) if isinstance(n, LTryCatch)]
        assert len(tries) == 1
        return tries[0].handlers

    ha = handlers_at("A")
    hb = handlers_at("B")
    assert [name for _, name, _ in ha] == ["exA"]
    assert [name for _, name, _ in hb] == ["exB"]


def test_try_catch_with_no_remaining_handlers_keeps_body():
    checked = compile_ok("""
    class Risky@(A, B) {
        void m(SymChannel@(A, B)<Object> ch, String@A s) {
            try {
                String@B got = ch.<String>com(s);
            }
            catch (RuntimeException@A exA) {
            }
        }
    }
    """)
    units, _ = project_program(checked, Reporter())
    body = units.unit("Risky_B").decl.methods[0].body
    tries = [n for n in S.walk(body) if isinstance(n, LTryCatch)]
    assert len(tries) == 1
    assert tries[0].handlers == []
    # The communication inside the try body is preserved for B.
    from choreo.printer import render_stm
    text = "\n".join(render_stm(body, 0))
    assert "ch.<String>com(Unit.id)" in text


# ------------------------------------------------------------- multi-file

def test_program_spans_several_files():
    checked, reporter = compile_sources([
        ("channels.chor", """
        enum Go@R { YES, NO }
        """),
        ("main.chor", """
        class Pair@(A, B) {
            void m(DiChannel@(A, B)<String> ch) {
                ch.<Go>select(Go@A.YES);
            }
        }
        """),
    ])
    assert not reporter.has_errors(), [d.render() for d in reporter.errors]
    assert checked.decl_info("Go") is not None
    assert checked.decl_info("Pair") is not None


def test_else_if_requires_braces():
    _, reporter = parse_program([("t.chor", """
    class C@A {
        void m(Boolean@A g) {
            if (g) { } else if (g) { }
        }
    }
    """)])
    assert reporter.has_errors()
    program, reporter = parse_program([("t.chor", """
    class C@A {
        void m(Boolean@A g) {
            if (g) { } else { if (g) { } }
        }
    }
    """)])
    assert not reporter.has_errors()


# ------------------------------------------------------------ kind errors

def test_wrong_role_arity_is_reported():
    _, reporter = compile_text("class C@A { DiDataChannel@A<String> ch; }")
    assert Code.KindMismatch in codes(reporter)


def test_wrong_type_argument_count():
    _, reporter = compile_text("class C@(A, B) { DiDataChannel@(A, B)<String, Integer> ch; }")
    assert Code.KindMismatch in codes(reporter)


def test_unknown_role_in_annotation():
    _, reporter = compile_text("class C@A { String@Q f; }")
    assert Code.UnknownName in codes(reporter)


def test_generic_class_needs_type_arguments_at_new():
    _, reporter = compile_text(
        "class C@A { void m() { List@A<Integer> l = new ArrayList@A(); } }")
    assert Code.KindMismatch in codes(reporter)


def test_instantiating_interface_is_rejected():
    _, reporter = compile_text(
        "class C@A { void m() { Iterator@A<String> it = new Iterator@A<String>(); } }")
    assert Code.TypeMismatch in codes(reporter)


# ------------------------------------------------- random expression trees

def random_exp(rng, roles, depth):
    if depth == 0:
        kind = rng.choice(["lit", "name"])
    else:
        kind = rng.choice(["lit", "name", "call", "binary", "field", "new"])
    span = None
    if kind == "lit":
        value = rng.choice([1, 22, "s", True, False])
        return S.Literal(span, value, [rng.choice(roles)])
    if kind == "name":
        return S.Name(span, rng.choice(["x", "ys", "ch"]))
    if kind == "call":
        scope = random_exp(rng, roles, depth - 1) if rng.random() < 0.7 else None
        targs = []
        args = [random_exp(rng, roles, depth - 1) for _ in range(rng.randrange(0, 3))]
        return S.Call(span, scope, targs, rng.choice(["m", "com", "size"]), args)
    if kind == "binary":
        op = rng.choice(["+", "-", "*", "<", "==", "&&"])
        return S.Binary(span, random_exp(rng, roles, depth - 1), op,
                        random_exp(rng, roles, depth - 1))
    if kind == "field":
        return S.FieldAcc(span, random_exp(rng, roles, depth - 1), "f")
    args = [random_exp(rng, roles, depth - 1) for _ in range(rng.randrange(0, 2))]
    return S.New(span, "Box", list(roles), [], args)


def test_random_expressions_round_trip_through_renderer():
    rng = random.Random(99)
    for _ in range(300):
        exp = random_exp(rng, ["A", "B"], 3)
        text = render_exp(exp)
        program, reporter = parse_program([
            ("rt.chor", f"class T@(A, B) {{ void m() {{ {text}; }} }}")])
        assert not reporter.has_errors(), text
        reparsed = program.decls[0].methods[0].body.exp
        assert structurally_equal(exp, reparsed), text


# ------------------------------------------------- mutated corpus texts

MUTATION_PIECES = [*string.punctuation, *sorted(KEYWORDS), "@[A,B]", "²", "٣"]


def mutate(text, edits):
    """``text`` after each ``(op, at, piece)`` edit in turn: insert ``piece``
    before offset ``at`` (taken modulo the length), delete the character
    there, or replace it with ``piece``."""
    for op, at, piece in edits:
        at %= len(text) + 1
        tail = text[at:] if op == "insert" else text[at + 1:]
        text = text[:at] + ("" if op == "delete" else piece) + tail
    return text


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from([p.read_text() for p in sorted(corpus_root().rglob("*.chor"))]),
       st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                          st.integers(0, 1 << 16), st.sampled_from(MUTATION_PIECES)),
                min_size=1, max_size=3))
@example("interface I@A { String@A f; }", [])
@example("class C@A { Integer@A m() { return ²@A; } }", [])
def test_a_mutated_corpus_text_is_reported_on_never_raised_on(text, edits):
    checked, reporter = compile_sources([("mutant.chor", mutate(text, edits))])
    if not reporter.has_errors():
        units, _ = project_program(checked, Reporter())
        for unit in units.units:
            render_unit(unit)
