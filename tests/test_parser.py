"""Parsing, which desugars chains and literal lists, and round-trip behaviour."""

import re

import pytest
from conftest import perfbench_gen

from choreo import surface as S
from choreo.checker import check_program
from choreo.corpus import corpus_root, positive_entries
from choreo.diagnostics import Code, DiagnosticError, Reporter, Severity
from choreo.lexer import lex
from choreo.parser import Parser, parse_program
from choreo.pipeline import front_end, prelude_names
from choreo.projector import project_program
from choreo.printer import render_exp, render_program
from choreo.record import fields
from choreo.span import SourceFile, Span
from choreo.surface import structurally_equal


def parse_ok(text, name="t.chor"):
    program, reporter = parse_program([(name, text)])
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    return program


def parse_one_exp(text):
    program = parse_ok(f"class T@A {{ void m() {{ {text}; }} }}")
    method = program.decls[0].methods[0]
    return method.body.exp


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


def test_hello_roles_shape():
    program = parse_ok(HELLO)
    assert len(program.decls) == 1
    decl = program.decls[0]
    assert isinstance(decl, S.ClassDecl)
    assert decl.name == "HelloRoles"
    assert decl.roles == ["A", "B"]
    assert [m.name for m in decl.methods] == ["sayHello"]
    assert decl.methods[0].is_static()


def test_empty_input_parses_to_zero_decls():
    program = parse_ok("")
    assert program.decls == []


def test_enum_declaration():
    program = parse_ok("enum Choice@A { GO, STOP }")
    decl = program.decls[0]
    assert isinstance(decl, S.EnumDecl)
    assert decl.roles == ["A"]
    assert decl.cases == ["GO", "STOP"]


# One witness snippet per grammar production.
GRAMMAR_WITNESSES = [
    "enum E@A { ONE, TWO }",
    "interface I@(A, B)<T@X> extends DiDataChannel@(A, B)<T> { <S@Y extends T@Y> S@B m(S@A v); }",
    "class C@A { }",
    "@Test class C@A { }",
    "public final class C@A { }",
    "class C@(A, B)<T@(X, Y) extends DiDataChannel@(X, Y)<String> & DiSelectChannel@(X, Y)> { }",
    "class C@A extends Object@A implements Consumer@A<String> { void accept(String@A s) { } }",
    "class C@A { Integer@A f; }",
    "class C@A { C(Integer@A seed) { } }",
    "class C@A { void m() { } }",                          # nil body
    "class C@A { Integer@A m() { return 1@A; } }",         # return exp
    "class C@A { void m() { return; } }",                  # bare return
    "class C@A { void m(List@A<String> l) { l.size(); } }",  # exp stm
    "class C@A { void m() { Integer@A x = 1@A; } }",       # var decl
    "class C@A { void m() { Integer@A x; x = 2@A; } }",    # assign
    "class C@A { void m(Integer@A x) { x += 2@A; x -= 1@A; x *= 2@A; x /= 2@A; x %= 2@A; } }",
    "class C@A { void m(Boolean@A g) { if (g) { } } }",
    "class C@A { void m(Boolean@A g) { if (g) { } else { } } }",
    "class C@A { void m() { { Integer@A x = 1@A; } } }",   # block
    "class C@A { void m(Exception@A e) { try { } catch (Exception@A ex) { } } }",
    "enum E@A { ONE } class C@A { void m(E@A g) { switch (g) { case ONE -> { } default -> { } } } }",
    "class C@A { void m() { Integer@A x = 1@A + 2@A * 3@A; } }",
    "class C@A { void m(Boolean@A p, Boolean@A q) { Boolean@A r = p && q || p & q | p == q; } }",
    "class C@A { void m(Integer@A a) { Boolean@A r = a < 1@A; Boolean@A s = a >= 2@A; Boolean@A t = a != 3@A; } }",
    "class C@A { void m() { String@A s = \"x\"@A.concat(\"y\"@A); } }",   # scoped call
    "class C@A { Integer@A f; void m() { Integer@A x = this.f; } }",      # field access
    "class C@A { void m() { List@A<Integer> l = new ArrayList@A<Integer>(); } }",
    "class C@A { void m() { Double@A d = Math@A.floor(3@A); } }",         # static call
    "class C@A { void m() { String@A x = null@A; } }",
    "class C@(A, B) { void m() { Object@A x = null@(A); } }",
    "class C@A { void m(Function@A<String, String> f) { String@A r = \"x\"@A >> f::apply; } }",
    "class C@(A, B) { void m(DiDataChannel@(A, B)<String> ch) { String@B r = \"x\"@A >> ch::<String>com; } }",
    "class C@A { void m() { Signature@A s = \"x\"@A >> Signature@A::new; } }"
    " class Signature@A { Signature(String@A t) { } }",
    "class C@(A, B) { void m(TestUtils@(A, B) u) { } }",   # multi-role TE in params
    "class C@A { <T@X> void m(Optional@A<String> o) { } }",
    # literal case labels, which the checker rejects
    "class C@A { void m(String@A s) { switch (s) { case \"a b\" -> { } case 1 -> { } } } }",
]


@pytest.mark.parametrize("snippet", GRAMMAR_WITNESSES)
def test_grammar_coverage(snippet):
    parse_ok(snippet)


@pytest.mark.parametrize("snippet", GRAMMAR_WITNESSES)
def test_round_trip_modulo_spans(snippet):
    program = parse_ok(snippet)
    printed = render_program(program)
    reparsed = parse_ok(printed)
    assert structurally_equal(program, reparsed), printed


def test_round_trip_hello():
    program = parse_ok(HELLO)
    assert structurally_equal(program, parse_ok(render_program(program)))


# ------------------------------------------------------------- chains

def test_desugar_single_link():
    assert render_exp(parse_one_exp("x >> f::apply")) == "f.apply(x)"


def test_desugar_left_associates():
    exp = parse_one_exp("t >> ch::<T>com >> f::apply >> ch::<R>com")
    assert render_exp(exp) == "ch.<R>com(f.apply(ch.<T>com(t)))"


def test_desugar_constructor_link():
    exp = parse_one_exp("e >> Box@(A, B)<String>::new")
    assert isinstance(exp, S.New)
    assert exp.class_name == "Box" and exp.roles == ["A", "B"]
    assert [te.name for te in exp.type_args] == ["String"]
    assert render_exp(exp.args[0]) == "e"


def test_desugar_mergesort_line():
    # Each call spans its link; the innermost is the chain's first operand.
    path = next(p.path for p in positive_entries() if p.name == "MergeSort")
    text = path.read_text()
    program = parse_ok(text, "MergeSort.chor")
    [lhs] = [n for n in S.walk(program) if isinstance(n, S.VarDecl) and n.name == "lhs"]
    calls, exp = [], lhs.init
    while isinstance(exp, S.Call):
        calls.append((exp.name, exp.span.line, exp.span.col, text[exp.span.start:exp.span.end]))
        exp = exp.args[0]
    assert calls == [
        ("sort", 30, 100, "mb::sort"),
        ("com", 30, 71, "ch_AB::<List<Integer>>com"),
        ("subList", 30, 35, "a.subList(0@A, pivot.intValue())"),
    ]
    assert render_exp(lhs.init) == "mb.sort(ch_AB.<List<Integer>>com(a.subList(0@A, pivot.intValue())))"


# ------------------------------------------------------- literal lists

def test_literal_list_expansion():
    program = parse_ok("""
    class T@(Device, Gatherer) {
        static void t() {
            SymChannel@(Device, Gatherer)<Object> ch =
                TestUtils@(Device, Gatherer).newLocalChannel("VST_channel1"@[Device, Gatherer]);
        }
    }
    """)
    call = program.decls[0].methods[0].body.init
    assert len(call.args) == 2
    assert [a.roles for a in call.args] == [["Device"], ["Gatherer"]]
    assert all(a.value == "VST_channel1" for a in call.args)
    assert call.args[0].span == call.args[1].span


def test_literal_list_singleton():
    program = parse_ok("class T@A { static void t() { f(1@[A]); } }")
    call = program.decls[0].methods[0].body.exp
    assert len(call.args) == 1
    assert call.args[0].roles == ["A"]


def test_literal_list_three_roles():
    program = parse_ok('class T@(A, B, C) { static void t() { g("k"@[A, B, C]); } }')
    call = program.decls[0].methods[0].body.exp
    assert len(call.args) == 3
    assert [a.roles[0] for a in call.args] == ["A", "B", "C"]


def test_literal_list_outside_argument_position_is_an_error():
    program, reporter = parse_program(
        [("t.chor", 'class T@(A, B) { static void t() { String@A x = "k"@[A, B]; } }')])
    assert [(d.code, d.span.col, d.message) for d in reporter.errors] == [
        (Code.SyntaxError, 49, "literal role lists are only allowed in argument positions")]
    assert program.decls[0].methods[0].body.init.roles == ["A"]


@pytest.mark.parametrize("body,roles", [
    ('f(("k"@[A, B]));', [["A"], ["B"]]),  # the argument node is the literal
    ('"k"@[A, B] >> f::g;', [["A"], ["B"]]),  # a chain's operand is an argument
    ('1@[A, B] >> D@(A, B)::new;', [["A"], ["B"]]),
    ('new D@A(1@[A, B], 2@B);', [["A"], ["B"], ["B"]]),
    ('super(2@[A, B], 3@A);', [["A"], ["B"], ["A"]]),
])
def test_literal_lists_expand_wherever_they_are_arguments(body, roles):
    program = parse_ok(f"class T@(A, B) {{ T() {{ {body} }} }}")
    exp = program.decls[0].constructors[0].body.exp
    assert [getattr(a, "roles", None) for a in exp.args] == roles


def test_a_literal_list_in_an_argument_expression_is_an_error():
    _, reporter = parse_program([("t.chor", "class T@(A, B) { void t() { f(1@[A, B] + 2@A); } }")])
    assert [(d.span.col, d.message) for d in reporter.errors] == [
        (31, "literal role lists are only allowed in argument positions")]


def test_literal_list_errors_come_after_every_syntax_error_in_walk_order():
    program, reporter = parse_program([
        ("a.chor", "class C@A { void m() { Integer@A y = 2@[A]; Integer@A z = ; } }"),
        ("b.chor", "enum E@A { X } class D@(A, B) { void m(E@A e) { switch (e) { "
                   "default -> { Integer@A x = 1@[A]; } case X -> { Integer@A y = 2@[A, B]; } } } "
                   "D() { Integer@A w = 3@[B] + ; } }"),
        ("c.chor", "class F@A { void m() { # } }"),
    ])
    assert [(d.span.source.name, d.span.col, d.message) for d in reporter.errors] == [
        ("a.chor", 59, "expected expression, found ';'"),
        ("b.chor", 168, "expected expression, found ';'"),
        ("c.chor", 24, "unexpected character '#'"),
        # A switch's cases come before its default; the list in the
        # dropped statement of D() is in no tree.
        ("a.chor", 38, "literal role lists are only allowed in argument positions"),
        ("b.chor", 124, "literal role lists are only allowed in argument positions"),
        ("b.chor", 89, "literal role lists are only allowed in argument positions"),
    ]
    assert [d.name for d in program.decls] == ["C", "E", "D"]


# ------------------------------------------------------------ precedence

def test_operator_precedence_tiers():
    exp = parse_one_exp("a || b && c == d + e * f")
    assert render_exp(exp) == "a || b && c == d + e * f"
    assert exp.op == "||"
    assert exp.right.op == "&&"
    assert exp.right.right.op == "=="


def test_chain_binds_looser_than_member_access():
    exp = parse_one_exp("a.size() >> f::apply")
    assert render_exp(exp) == "f.apply(a.size())"


def test_nested_generic_closing_tokens():
    program = parse_ok(
        "class C@A { void m(List@A<List<Integer>> xs) { Integer@A n = xs.get(0@A).get(0@A); } }")
    param = program.decls[0].methods[0].params[0]
    assert param.te.args[0].args[0].name == "Integer"


def test_syntax_error_has_recovery():
    program, reporter = parse_program([
        ("bad.chor", "class C@A { void m() { Integer@A x = ; } void k() { } }")])
    assert reporter.has_errors()
    assert program.decls and program.decls[0].name == "C"
    assert [m.name for m in program.decls[0].methods] == ["m", "k"]


def test_literals_require_roles():
    _, reporter = parse_program([("bad.chor", "class C@A { void m() { Integer@A x = 1; } }")])
    assert reporter.has_errors()


def test_token_stream_reproduces_source():
    from choreo.lexer import lex
    from choreo.span import SourceFile

    text = 'class C@A { void m() { String@A s = "a\\nb"@A; } } // done'
    tokens = lex(SourceFile("t.chor", text))
    pieces = [text[t.span.start:t.span.end] for t in tokens if t.kind != "eof"]
    reassembled = "".join(pieces)
    squashed = "".join(text.split())
    # Dropping trivia (spaces and the trailing comment) reproduces the source.
    assert "".join(reassembled.split()) == squashed.replace("//done", "")


def test_corpus_files_round_trip():
    from choreo.corpus import positive_entries

    for prog in positive_entries():
        text = prog.path.read_text()
        program = parse_ok(text, str(prog.path))
        printed = render_program(program)
        reparsed = parse_ok(printed, prog.name + ".printed")
        assert structurally_equal(program, reparsed), prog.name


def test_operators_back_to_back_lex_greedily():
    from choreo.lexer import OPERATORS, lex
    from choreo.span import SourceFile

    text = ">>=::->" + "".join(OPERATORS) + "#"
    with pytest.raises(DiagnosticError) as exc:
        lex(SourceFile("t.chor", text))
    assert exc.value.diagnostic.message == "unexpected character '#'"
    tokens = lex(SourceFile("t.chor", text[:-1]))
    assert [t.lexeme for t in tokens[:4]] == [">>", "=", "::", "->"]
    # Each operator is lexed whole; one that starts a longer one is not
    # split, and two that form a longer one are merged (">" ">" to ">>").
    lexemes = [t.lexeme for t in tokens if t.kind == "op"]
    assert "".join(lexemes) == text[:-1]
    assert all(t.span.end - t.span.start == len(t.lexeme) for t in tokens)
    assert lexemes[4:9] == ["::", "->", ">>", "||", "&&"]


def test_unterminated_method_body_reports_and_returns():
    _, reporter = parse_program([("t.chor", "class T@A { void m() { ")])
    assert [d.code for d in reporter.errors] == [Code.SyntaxError]


@pytest.mark.parametrize("name", ["MergeSort", "DistAuth"])
def test_every_line_end_prefix_parses_to_an_end(name):
    from choreo.corpus import positive_entries

    path = next(p.path for p in positive_entries() if p.name == name)
    lines = path.read_text().splitlines(keepends=True)
    for n in range(len(lines) + 1):
        _, reporter = parse_program([(name, "".join(lines[:n]))])
        assert all(d.code is Code.SyntaxError for d in reporter.errors), n


# ------------------------------------------------------------ tokens and spans

_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*\n?|/\*.*?\*/)*", re.S)


def _corpus_and_distauth_texts():
    """Every corpus file, then DistAuthN for N in 2..20 as the benchmark
    generates it."""
    out = [(str(p), p.read_text()) for p in sorted(corpus_root().rglob("*.chor"))]
    gen = perfbench_gen()
    return out + [(f"DistAuth{n}", gen.distauth_source(n)) for n in range(2, 21)]


def test_tokens_and_trivia_rebuild_every_corpus_text():
    for name, text in _corpus_and_distauth_texts():
        tokens = lex(SourceFile(name, text))
        eof = tokens[-1]
        assert (eof.kind, eof.lexeme, eof.start, eof.end) == ("eof", "", len(text), len(text))
        pieces, at = [], 0
        for tok in tokens:
            trivia = text[at:tok.start]
            assert _TRIVIA.fullmatch(trivia), (name, tok)
            piece = text[tok.start:tok.end]
            if tok.kind == "string":
                assert piece[0] == piece[-1] == '"', (name, tok)
            else:
                assert piece == tok.lexeme, (name, tok)
            pieces += [trivia, piece]
            at = tok.end
        assert "".join(pieces) == text, name


def test_split_shr_gives_two_adjacent_closing_tokens():
    text = "class C@A { void m(List@A<List<Integer>> xs) { } }"
    parser = Parser(SourceFile("t.chor", text), Reporter())
    [decl] = parser.parse_program()
    at = text.index(">>")
    closers = [(t.kind, t.lexeme, t.start, t.end) for t in parser.tokens
               if t.lexeme.startswith(">")]
    assert closers == [("op", ">", at, at + 1), ("op", ">", at + 1, at + 2)]
    te = decl.methods[0].params[0].te
    assert text[te.span.start:te.span.end] == "List@A<List<Integer>>"
    assert text[te.args[0].span.start:te.args[0].span.end] == "List<Integer>"


@pytest.mark.parametrize("text,where", [
    ("class C@A { void m() { Integer@A x = ; } }",
     (1, 38, "expected expression, found ';'")),
    ("class C@A {\n    void m() {\n        Integer@A x = 1@A # 2;\n    }\n}",
     (3, 27, "unexpected character '#'")),
    ('class C@A {\n    void m() {\n        String@A s = "open;\n    }\n}',
     (3, 22, "unterminated string literal")),
    ("class C@A { void m(List@A<List<Integer>> xs) { xs.get(0@[A, B]); "
     "Integer@A y = 2@[A]; } }",
     (1, 80, "literal role lists are only allowed in argument positions")),
    ("class C@A {\n  /* never closed\n}", (2, 3, "unterminated block comment")),
    ("class C@A { void m() { if (true@A) { } else ; } }", (1, 45, "expected '{', found ';'")),
    ("class C@A { void m() { Integer@A x = 1; } }",
     (1, 38, "literal must carry a role annotation, e.g. 1@A")),
    ("interface I@A { String@A f; }", (1, 17, "interfaces cannot declare fields")),
    # A number has ASCII digits only, and a numeral is no letter.
    ("class C@A { Integer@A m() { return ²@A; } }", (1, 36, "unexpected character '²'")),
    ("class C@A { Integer@A m() { return 1²@A; } }", (1, 37, "unexpected character '²'")),
    ("class C@A { Integer@A m() { return ٣@A; } }", (1, 36, "unexpected character '٣'")),
])
def test_syntax_error_line_and_column(text, where):
    _, reporter = parse_program([("t.chor", text)])
    assert [(d.span.line, d.span.col, d.message) for d in reporter.errors] == [where]


# Forms no other test reaches, each pinned as its tree or its diagnostics.
PINNED_FORMS = [
    ("class C@A implements Consumer@A<String>, Consumer@A<Integer> { }",
     "class C@A implements Consumer@A<String>, Consumer@A<Integer> {\n}\n", []),
    ("class C@A { void m() { x.<Integer, String>f(y); } }",
     "class C@A {\n    void m() {\n        x.<Integer, String>f(y);\n    }\n}\n", []),
    ("class C@A { void m() { y >> x::<Integer, String>f; } }",
     "class C@A {\n    void m() {\n        x.<Integer, String>f(y);\n    }\n}\n", []),
    ("class C@A { void m() { y >> this.f.g::h; z >> x.f::h; } }",
     "class C@A {\n    void m() {\n        this.f.g.h(y);\n        x.f.h(z);\n    }\n}\n", []),
    ("class C@A { void m() { y >> Pair@(A, B)<Integer, String>::new; } }",
     "class C@A {\n    void m() {\n        new Pair@(A, B)<Integer, String>(y);\n    }\n}\n",
     []),
    ("class C@A { void m() { y >> Pair@(A, B)<Integer>::f; } }", None,
     [(1, 49, "expected '::new' after constructor reference")]),
    ("class C@A { <T@X> Integer@A f; }", None,
     [(1, 30, "fields cannot declare type parameters")]),
    ("class C@A { void m() { switch (c) { default -> { } default -> { } } } }", None,
     [(1, 52, "duplicate default case"), (1, 71, "expected declaration, found '}'")]),
    ("class C@A { void m() { switch (c) { case + -> { } } } }", None,
     [(1, 42, "expected case label"), (1, 55, "expected declaration, found '}'")]),
    ('@Ann(a = 1, b = "x") class C@A { }', '@Ann(a = 1, b = "x")\nclass C@A {\n}\n', []),
    ("@Ann(a = x) class C@A { }", None, [(1, 10, "expected literal annotation value")]),
    ("foo bar { } class C@A { }", "class C@A {\n}\n",
     [(1, 1, "expected declaration, found 'foo'")]),
]


@pytest.mark.parametrize("text,tree,errors", PINNED_FORMS)
def test_pinned_forms_parse_to_their_tree_or_report(text, tree, errors):
    program, reporter = parse_program([("t.chor", text)])
    assert [(d.code, d.span.line, d.span.col, d.message) for d in reporter.items] == [
        (Code.SyntaxError, *e) for e in errors]
    if tree is not None:
        assert render_program(program) == tree


# ------------------------------------------------------------- tree walk

def _naive_walk(node, out):
    """Pre-order over record fields, recursively: what ``S.walk`` must
    yield."""
    if isinstance(node, (list, tuple)):
        for item in node:
            _naive_walk(item, out)
    elif fields(node) is not None and not isinstance(node, (type, Span, SourceFile)):
        out.append(node)
        for name in fields(node):
            if name != "span":
                _naive_walk(getattr(node, name), out)
    return out


def test_walk_matches_a_naive_traversal_of_both_trees():
    projected = 0
    for name, text in _corpus_and_distauth_texts():
        program, reporter = front_end([(name, text)])
        assert [id(n) for n in S.walk(program)] == [id(n) for n in _naive_walk(program, [])]
        if reporter.has_errors():
            continue
        checked, reporter = check_program(program, Reporter(), prelude_names())
        if reporter.has_errors():
            continue
        units, reporter = project_program(checked, Reporter())
        if reporter.has_errors():
            continue
        projected += 1
        assert [id(n) for n in S.walk(units)] == [id(n) for n in _naive_walk(units, [])], name
    assert projected == 11 + 1 + 19  # positive, extra and DistAuth2..20


def test_walk_of_none_yields_nothing():
    assert list(S.walk(None)) == []


def test_front_end_takes_no_python_stack_per_statement(recursion_limit_1000):
    body = "".join(f"x = x + {i}@A;\n" for i in range(5000))
    program, reporter = front_end([("long.chor", f"class C@A {{ void m(Integer@A x) {{\n{body}}} }}")])
    assert not reporter.has_errors()
    assert sum(isinstance(n, S.Assign) for n in S.walk(program.decls[-1])) == 5000


def test_front_end_takes_no_python_stack_per_expression_level(recursion_limit_1000):
    sum_exp = " + ".join(f"{i}@A" for i in range(2000))
    program, reporter = front_end([("deep.chor", f"class C@A {{ Integer@A m() {{ return {sum_exp}; }} }}")])
    assert not reporter.has_errors()
    assert sum(isinstance(n, S.Binary) for n in S.walk(program.decls[-1])) == 1999


def test_a_declaration_nested_too_deeply_to_parse_is_one_diagnostic(recursion_limit_1000):
    # The parser recurses per parenthesised level; at Python's default limit
    # 300 levels are reported at the declaration, which is skipped, and the
    # next declaration still parses.
    exp = "x"
    for _ in range(300):
        exp = f"(x + {exp})"
    text = f"class C@A {{ Integer@A m(Integer@A x) {{ return {exp}; }} }}\nclass D@A {{ }}"
    program, reporter = parse_program([("deep.chor", text)])
    assert [(d.code, d.severity, d.span.line, d.span.col, d.message) for d in reporter.items] == [
        (Code.InternalError, Severity.ERROR, 1, 1, "declaration is nested too deeply to parse.")]
    assert [d.name for d in program.decls] == ["D"]
