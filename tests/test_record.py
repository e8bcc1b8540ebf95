"""Record classes: the methods ``record`` builds, pinned to what the
package's classes had when ``dataclasses`` built them."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import choreo
from choreo import checker as C, local as L, surface as S, types as T
from choreo.diagnostics import Code, Diagnostic, Reporter
from choreo.differential import RunSpec
from choreo.interpreter import ExecutionReport, Frame
from choreo.pipeline import front_end
from choreo.record import MISSING, field, fields, record, replace
from choreo.runtime import EnumV, ExceptionV, IteratorV, ListV, OptionalV
from choreo.span import SourceFile, Span


def test_importing_the_package_loads_neither_dataclasses_nor_typing():
    # Without the site module, whose .pth hooks may import typing first.
    src = str(Path(choreo.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import choreo; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["[]"]


# module.class -> (__init__ parameters, with their defaults, and how the
# class compares: "identity", "eq" (by fields, unhashable) or "frozen" (by
# fields, hashable, read-only)).
RECORDS = {
    "builtins.PrintStreamV": ("console role", "eq"),
    "checker.FTPInfo": ("name var role_binders bound_tes node=None bound_ctors=<factory>", "eq"),
    "checker.MethodInfo": ("node owner ftps=<factory> scope=None params=None returns=Ellipsis slot=<factory>", "eq"),
    "checker.DeclInfo": ("node sym role_vars ftps=<factory> methods=<factory> constructors=<factory> is_prelude=False scope=None supers=None", "eq"),
    "checker.Scope": ("roles types", "eq"),
    "checker._BodyCtx": ("info mi scope constructor", "eq"),
    "checker.PreludeLayer": ("table=mappingproxy({}) var_ftp=mappingproxy({}) te_types=mappingproxy({}) closures=mappingproxy({})", "frozen"),
    "corpus.CorpusProgram": ("name path runs", "eq"),
    "diagnostics.Diagnostic": ("code span message severity=<Severity.ERROR: 'error'> expecting=None found=None", "frozen"),
    "diagnostics.Reporter": ("items=<factory>", "eq"),
    "differential.Comparison": ("equal diffs global_report distributed_report", "eq"),
    "differential.RunSpec": ("entry_class entry_method args=<factory> channels=<factory> deadline=10.0 name=None", "eq"),
    "distributed.WorkerOutcome": ("role status value=None error=None", "eq"),
    "interpreter.Frame": ("this env site", "eq"),
    "interpreter.ExecutionReport": ("returns transcripts duration status error=None outcomes=None", "eq"),
    "local.LTE": ("name args=<factory>", "eq"),
    "local.LUnit": ("", "eq"),
    "local.LUnitCall": ("args", "eq"),
    "local.LLit": ("value", "eq"),
    "local.LName": ("ident", "eq"),
    "local.LStaticName": ("name", "eq"),
    "local.LFieldAcc": ("scope name", "eq"),
    "local.LCall": ("scope type_args name args slot=None", "eq"),
    "local.LNew": ("class_name type_args args slot=None", "eq"),
    "local.LBinary": ("left op right", "eq"),
    "local.LNil": ("", "eq"),
    "local.LReturn": ("value", "eq"),
    "local.LThrow": ("message", "eq"),
    "local.LExpStm": ("exp cont", "eq"),
    "local.LVarDecl": ("te name init cont", "eq"),
    "local.LAssign": ("target op value cont", "eq"),
    "local.LIf": ("guard then orelse cont", "eq"),
    "local.LBlock": ("body cont", "eq"),
    "local.LSwitch": ("guard cases default cont", "eq"),
    "local.LTryCatch": ("body handlers cont", "eq"),
    "local.LAnnotation": ("name args", "eq"),
    "local.LFTP": ("name bounds", "eq"),
    "local.LParam": ("te name", "eq"),
    "local.LMethod": ("annotations modifiers ftps return_te name params body is_constructor=False slot=None", "eq"),
    "local.LField": ("annotations modifiers te name", "eq"),
    "local.LEnum": ("annotations modifiers name cases", "eq"),
    "local.LInterface": ("annotations modifiers name ftps extends methods", "eq"),
    "local.LClass": ("annotations modifiers name ftps extends implements fields constructors methods table=None", "eq"),
    "local.LocalUnit": ("generated_name source_name role decl", "eq"),
    "local.LocalProgram": ("units facts=None", "eq"),
    "metrics.MetricsRow": ("program choral_loc roles conditionals local_loc expansion_pct typecheck_ms projection_ms", "eq"),
    "projector.Projector": ("checked reporter annotate=False", "eq"),
    "runtime.EnumV": ("type_name case", "frozen"),
    "runtime.ListV": ("items=<factory>", "eq"),
    "runtime.OptionalV": ("present value=None", "eq"),
    "runtime.IteratorV": ("items index=0", "eq"),
    "runtime.ExceptionV": ("class_name message", "eq"),
    "runtime.ChannelEndpoint": ("pair side claimant", "eq"),
    "span.SourceFile": ("name text", "frozen"),
    "span.Span": ("source start end", "frozen"),
    "surface.Node": ("span", "identity"),
    "surface.TE": ("span name roles args is_void=False", "identity"),
    "surface.Exp": ("span", "identity"),
    "surface.Literal": ("span value roles", "identity"),
    "surface.Name": ("span ident", "identity"),
    "surface.StaticRef": ("span name roles", "identity"),
    "surface.FieldAcc": ("span scope name", "identity"),
    "surface.Call": ("span scope type_args name args", "identity"),
    "surface.New": ("span class_name roles type_args args", "identity"),
    "surface.Binary": ("span left op right", "identity"),
    "surface.Stm": ("span", "identity"),
    "surface.Nil": ("span", "identity"),
    "surface.Return": ("span value", "identity"),
    "surface.Throw": ("span message", "identity"),
    "surface.ExpStm": ("span exp cont=None", "identity"),
    "surface.VarDecl": ("span te name init cont=None", "identity"),
    "surface.Assign": ("span target op value cont=None", "identity"),
    "surface.If": ("span guard then orelse cont=None", "identity"),
    "surface.Block": ("span body cont=None", "identity"),
    "surface.SwitchCase": ("span label body", "identity"),
    "surface.Switch": ("span guard cases default cont=None", "identity"),
    "surface.CatchClause": ("span te name body", "identity"),
    "surface.TryCatch": ("span body handlers cont=None", "identity"),
    "surface.Annotation": ("span name args", "identity"),
    "surface.FTP": ("span name roles bounds", "identity"),
    "surface.Param": ("span te name", "identity"),
    "surface.Method": ("span annotations modifiers ftps return_te name params body is_constructor=False", "identity"),
    "surface.FieldDecl": ("span annotations modifiers te name", "identity"),
    "surface.Decl": ("span annotations modifiers name roles", "identity"),
    "surface.EnumDecl": ("span annotations modifiers name roles cases=<factory>", "identity"),
    "surface.InterfaceDecl": ("span annotations modifiers name roles ftps=<factory> extends=<factory> methods=<factory>", "identity"),
    "surface.ClassDecl": ("span annotations modifiers name roles ftps=<factory> extends=None implements=<factory> fields=<factory> constructors=<factory> methods=<factory>", "identity"),
    "surface.SurfaceProgram": ("decls", "identity"),
    "testkit.TestCase": ("class_name method_name roles", "eq"),
    "testkit.CaseResult": ("case passed duration failures=<factory>", "eq"),
    "types.TVar": ("name uid role=False", "frozen"),
    "types.TSym": ("name", "frozen"),
    "types.TAbs": ("var body", "frozen"),
    "types.TApp": ("ctor arg", "frozen"),
    "types.TVoid": ("", "frozen"),
    "types.TBottom": ("roles", "frozen"),
}


def _records():
    for info in sorted(pkgutil.iter_modules(choreo.__path__), key=lambda m: m.name):
        module = importlib.import_module(f"choreo.{info.name}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and "__record_fields__" in cls.__dict__:
                yield f"{info.name}.{name}", cls


def _signature(cls):
    return " ".join(
        p.name if p.default is inspect.Parameter.empty
        else f"{p.name}=<factory>" if p.default is MISSING else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values())


def _kind(cls):
    if cls.__hash__ is None:
        return "eq"
    if "__setattr__" in cls.__dict__:
        return "frozen"
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    return "identity"


def test_every_record_keeps_its_constructor_and_comparison():
    assert {name: (_signature(cls), _kind(cls)) for name, cls in _records()} == RECORDS


def test_a_default_factory_gives_each_instance_a_fresh_object():
    sp = Span(SourceFile("a", "x"), 0, 1)
    decls = [S.ClassDecl(sp, [], [], "C", []) for _ in range(2)]
    assert decls[0].methods == decls[1].methods == [] and decls[0].methods is not decls[1].methods
    assert L.LTE("T").args is not L.LTE("T").args
    assert Reporter().items is not Reporter().items
    # A default stays the class attribute; a default factory leaves none.
    assert "methods" not in vars(S.ClassDecl) and S.ClassDecl.extends is None


def test_surface_nodes_compare_and_hash_by_identity():
    sp = Span(SourceFile("a", "x"), 0, 1)
    a, b = S.Name(sp, "x"), S.Name(sp, "x")
    assert a == a and a != b and len({a, b}) == 2


def test_local_nodes_compare_by_fields_and_are_unhashable():
    assert L.LCall(L.LName("x"), [], "f", [L.LLit(1)]) == L.LCall(L.LName("x"), [], "f", [L.LLit(1)])
    assert L.LName("x") != L.LName("y") and L.LName("x") != L.LStaticName("x")
    assert L.LUnit() == L.LUnit() and L.LNil() != L.LUnit()
    with pytest.raises(TypeError):
        hash(L.LName("x"))
    # ``facts`` is left out of comparison and repr.
    assert L.LocalProgram([], facts=1) == L.LocalProgram([], facts=2)


def test_statement_chains_compare_in_a_loop(recursion_limit_1000):
    def chain(last):
        stms = [L.LExpStm(L.LName(f"x{i}"), None) if i % 2 else
                L.LVarDecl(L.LTE("Integer"), f"v{i}", L.LLit(i), None) for i in range(5000)]
        return L.link(stms + [L.LReturn(L.LLit(last))])

    assert chain(1) == chain(1) and not chain(1) != chain(1)
    assert chain(1) != chain(2)
    shorter = chain(1)
    shorter.cont.cont = None
    assert shorter != chain(1) and chain(1) != shorter
    assert L.LExpStm(L.LName("x"), None) != L.LExpStm(L.LName("x"), L.LNil())


def test_repr_follows_a_statement_chain_in_a_loop(recursion_limit_1000):
    stms = [L.LExpStm(L.LName(f"x{i}"), None) for i in range(5000)]
    chain = L.link(stms + [L.LIf(L.LName("g"), L.LNil(), None, L.LReturn(L.LLit(1)))])
    assert repr(chain) == (
        "".join(f"LExpStm(exp=LName(ident='x{i}'), cont=" for i in range(5000))
        + "LIf(guard=LName(ident='g'), then=LNil(), orelse=None, cont=LReturn(value=LLit(value=1)))"
        + ")" * 5000)


def test_type_terms_and_spans_compare_by_fields_hash_and_are_read_only():
    src = SourceFile("a", "xy")
    pairs = [(T.TApp(T.TSym("List"), T.TVar("A", 1, True)),
              T.TApp(T.TSym("List"), T.TVar("A", 1, True))),
             (T.TAbs(T.TVar("X", 2, True), T.TSym("C")), T.TAbs(T.TVar("X", 2, True), T.TSym("C"))),
             (Span(src, 0, 1), Span(SourceFile("a", "xy"), 0, 1))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and a is not b
    assert T.TVar("A", 1) != T.TVar("A", 2) and T.TSym("A") != T.TVar("A", 1)
    t = T.TSym("A")
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        t.name = "B"
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del t.name
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        t.other = 1
    assert src.line_starts is src.line_starts and "line_starts" in vars(src)


def test_frame_keeps_its_slots():
    assert Frame.__slots__ == ("this", "env", "site")
    assert not hasattr(Frame(None, {}, "A"), "__dict__")


@record
class Base:
    a: int
    b: list = field(default_factory=list)


@record
class Child(Base):
    c: str = "c"
    hidden: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.d = self.a + 1


@record(frozen=True)
class Point:
    x: int
    y: int = 0


def test_fields_defaults_and_post_init_follow_the_bases():
    child = Child(1)
    assert (child.a, child.b, child.c, child.d) == (1, [], "c", 2)
    assert list(fields(Child)) == ["a", "b", "c", "hidden"]
    assert fields(Child)["a"].type == "int" and fields(int) is None
    assert repr(child) == "Child(a=1, b=[], c='c')" and child == Child(1, hidden=2)
    moved = replace(child, c="e")
    assert (moved.a, moved.c, moved.d) == (1, "e", 2) and moved.b == child.b
    assert Point(1) == Point(1, 0) and hash(Point(1)) == hash(Point(1, 0))


REPRS = [
    "SourceFile(name='a.chor', text='class C@A {\\n  Integer@A f(Integer@A x) { return x + 1@A; }\\n}\\n')",
    'a.chor:2:3',
    "Param(span=a.chor:1:25, te=TE(span=a.chor:1:25, name='Integer', roles=['A'], args=[], is_void=False), name='x')",
    "Return(span=a.chor:1:40, value=Binary(span=a.chor:1:47, left=Name(span=a.chor:1:47, ident='x'), op='+', right=Literal(span=a.chor:1:51, value=1, roles=['A'])))",
    "Literal(span=a.chor:2:3, value=3, roles=['A'])",
    "TE(span=a.chor:2:3, name='void', roles=[], args=[], is_void=True)",
    "LCall(scope=LName(ident='x'), type_args=[LTE(name='T', args=[])], name='f', args=[LLit(value=1), LUnit()])",
    "LExpStm(exp=LBinary(left=LLit(value='a'), op='+', right=LLit(value=None)), cont=LNil())",
    "LocalProgram(units=[LocalUnit(generated_name='C_A', source_name='C', role='A', decl=LEnum(annotations=[], modifiers=['public'], name='C_A', cases=['X']))])",
    "TApp(ctor=TApp(ctor=TSym(name='List'), arg=TVar(name='A', uid=3, role=True)), arg=TBottom(roles=('A',)))",
    "TAbs(var=TVar(name='X', uid=2, role=True), body=TSym(name='C'))",
    "Scope(roles={'A': TVar(name='A', uid=1, role=True)}, types={})",
    "FTPInfo(name='T', var=TVar(name='T', uid=2, role=False), role_binders=[], bound_tes=[], node=None, bound_ctors=[])",
    "Diagnostic(code=<Code.TypeMismatch: 'TypeMismatch'>, span=a.chor:2:3, message='m', severity=<Severity.ERROR: 'error'>, expecting='Integer', found=None)",
    'Reporter(items=[])',
    "ExecutionReport(returns={'A': 1}, transcripts={'A': ['x']}, duration=0.5, status='ok', error=None)",
    "Frame(this=None, env={'x': 1}, site='A')",
    "RunSpec(entry_class='C', entry_method='main', args={}, channels={}, deadline=10.0, name=None)",
    'Optional(3)',
    '[1]',
    'E.X',
    'IteratorV(items=[1, 2], index=0)',
    "ExceptionV(class_name='E', message='m')",
]


def test_reprs_are_unchanged():
    src = SourceFile("a.chor", "class C@A {\n  Integer@A f(Integer@A x) { return x + 1@A; }\n}\n")
    sp = Span(src, 14, 20)
    prog, _ = front_end([("a.chor", "class C@A { Integer@A f(Integer@A x) { return x + 1@A; } }\n")])
    m = prog.decls[-1].methods[0]
    samples = [
        src, sp,
        m.params[0], m.body,
        S.Literal(sp, 3, ["A"]),
        S.TE(sp, "void", [], [], is_void=True),
        L.LCall(L.LName("x"), [L.LTE("T")], "f", [L.LLit(1), L.LUnit()]),
        L.LExpStm(L.LBinary(L.LLit("a"), "+", L.LLit(None)), L.LNil()),
        L.LocalProgram([L.LocalUnit("C_A", "C", "A", L.LEnum([], ["public"], "C_A", ["X"]))],
                       facts=object()),
        T.TApp(T.TApp(T.TSym("List"), T.TVar("A", 3, True)), T.TBottom(("A",))),
        T.TAbs(T.TVar("X", 2, True), T.TSym("C")),
        C.Scope({"A": T.TVar("A", 1, True)}, {}),
        C.FTPInfo("T", T.TVar("T", 2), [], []),
        Diagnostic(Code.TypeMismatch, sp, "m", expecting="Integer"),
        Reporter(),
        ExecutionReport({"A": 1}, {"A": ["x"]}, 0.5, "ok"),
        Frame(None, {"x": 1}, "A"),
        RunSpec("C", "main"),
        OptionalV(True, 3), ListV([1]), EnumV("E", "X"), IteratorV([1, 2]), ExceptionV("E", "m"),
    ]
    assert [repr(s) for s in samples] == REPRS


def test_repr_of_a_cycle_of_records_ends():
    info = C.DeclInfo(None, T.TSym("D"), [])
    info.methods.append(C.MethodInfo(None, info))
    assert repr(info) == ("DeclInfo(node=None, sym=TSym(name='D'), role_vars=[], ftps=[], "
                          "methods=[MethodInfo(node=None, owner=..., ftps=[])], "
                          "constructors=[], is_prelude=False)")
    assert repr(info.methods[0]) == (
        "MethodInfo(node=None, owner=DeclInfo(node=None, sym=TSym(name='D'), role_vars=[], "
        "ftps=[], methods=[...], constructors=[], is_prelude=False), ftps=[])")
