"""Reader for printed ``.lchor`` units.

Reuses the surface parser in its role-free mode and converts the result to
the local AST. Static scopes and plain names are textually identical in the
local language: a call or field scope that names no parameter, local
variable or field of the unit reads back as a static name, such as a class
(``TestUtils_A.newLocalChannel(...)``) or an enum (``Choice.GO``).
"""

from __future__ import annotations

from . import surface as S
from .diagnostics import DiagnosticError, Reporter
from .local import (
    LAnnotation, LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm,
    LFTP, LField, LFieldAcc, LIf, LInterface, LLit, LMethod, LName, LNew,
    LNil, LParam, LReturn, LStaticName, LSwitch, LThrow, LTryCatch, LTE, LUnit,
    LUnitCall, LVarDecl, LocalUnit,
)
from .parser import Parser
from .span import SourceFile


def parse_local_unit(text, name="<local>"):
    reporter = Reporter()
    parser = Parser(SourceFile(name, text), reporter, local_mode=True)
    decls = parser.parse_program()
    if reporter.has_errors():
        raise DiagnosticError(reporter.errors[0])
    if len(decls) != 1:
        raise ValueError(f"expected exactly one declaration, found {len(decls)}")
    decl = convert_decl(decls[0])
    mark_static_scopes(decl)
    return LocalUnit(decl.name, decl.name, "<reparsed>", decl)


def mark_static_scopes(decl):
    """Makes each call or field scope of ``decl`` that names no parameter,
    local variable or field of it a static name."""
    fields = names = {"this"} | {f.name for f in getattr(decl, "fields", [])}
    for node in S.walk(decl):  # each name comes before its uses
        if isinstance(node, LMethod):
            names = fields | {p.name for p in node.params}
        elif isinstance(node, LVarDecl):
            names.add(node.name)
        elif isinstance(node, LTryCatch):
            names.update(name for _, name, _ in node.handlers)
        elif (isinstance(node, (LCall, LFieldAcc)) and isinstance(node.scope, LName)
                and node.scope.ident not in names):
            node.scope = LStaticName(node.scope.ident)


def convert_te(te):
    if te.is_void:
        return LTE("void")
    return LTE(te.name, [convert_te(a) for a in te.args])


def convert_exp(exp):
    if isinstance(exp, S.Literal):
        return LLit(exp.value)
    if isinstance(exp, S.Name):
        return LName(exp.ident)
    if isinstance(exp, S.FieldAcc):
        if isinstance(exp.scope, S.Name) and exp.scope.ident == "Unit" and exp.name == "id":
            return LUnit()
        return LFieldAcc(convert_exp(exp.scope), exp.name)
    if isinstance(exp, S.Call):
        if (
            exp.scope is not None
            and isinstance(exp.scope, S.Name)
            and exp.scope.ident == "Unit"
            and exp.name == "id"
        ):
            return LUnitCall([convert_exp(a) for a in exp.args])
        scope = convert_exp(exp.scope) if exp.scope is not None else None
        return LCall(scope, [convert_te(t) for t in exp.type_args], exp.name,
                     [convert_exp(a) for a in exp.args])
    if isinstance(exp, S.New):
        return LNew(exp.class_name, [convert_te(t) for t in exp.type_args],
                    [convert_exp(a) for a in exp.args])
    if isinstance(exp, S.Binary):
        return LBinary(convert_exp(exp.left), exp.op, convert_exp(exp.right))
    raise TypeError(f"convert_exp: {exp!r}")


def convert_stm(stm):
    if stm is None:
        return None
    if isinstance(stm, S.Nil):
        return LNil()
    if isinstance(stm, S.Return):
        return LReturn(convert_exp(stm.value) if stm.value is not None else None)
    if isinstance(stm, S.Throw):
        return LThrow(stm.message)
    if isinstance(stm, S.ExpStm):
        return LExpStm(convert_exp(stm.exp), convert_stm(stm.cont))
    if isinstance(stm, S.VarDecl):
        return LVarDecl(convert_te(stm.te), stm.name,
                        convert_exp(stm.init) if stm.init is not None else None,
                        convert_stm(stm.cont))
    if isinstance(stm, S.Assign):
        return LAssign(convert_exp(stm.target), stm.op, convert_exp(stm.value),
                       convert_stm(stm.cont))
    if isinstance(stm, S.If):
        return LIf(convert_exp(stm.guard), convert_stm(stm.then),
                   convert_stm(stm.orelse), convert_stm(stm.cont))
    if isinstance(stm, S.Block):
        return LBlock(convert_stm(stm.body), convert_stm(stm.cont))
    if isinstance(stm, S.Switch):
        return LSwitch(
            convert_exp(stm.guard),
            [(str(c.label), convert_stm(c.body)) for c in stm.cases],
            convert_stm(stm.default) if stm.default is not None else None,
            convert_stm(stm.cont),
        )
    if isinstance(stm, S.TryCatch):
        return LTryCatch(
            convert_stm(stm.body),
            [(convert_te(h.te), h.name, convert_stm(h.body)) for h in stm.handlers],
            convert_stm(stm.cont),
        )
    raise TypeError(f"convert_stm: {stm!r}")


def convert_method(m):
    return LMethod(
        [LAnnotation(a.name, list(a.args)) for a in m.annotations],
        list(m.modifiers),
        [LFTP(f.name, [convert_te(b) for b in f.bounds]) for f in m.ftps],
        convert_te(m.return_te) if m.return_te is not None else None,
        m.name,
        [LParam(convert_te(p.te), p.name) for p in m.params],
        convert_stm(m.body) if m.body is not None else None,
        m.is_constructor,
    )


def convert_decl(decl):
    annotations = [LAnnotation(a.name, list(a.args)) for a in decl.annotations]
    if isinstance(decl, S.EnumDecl):
        return LEnum(annotations, list(decl.modifiers), decl.name, list(decl.cases))
    if isinstance(decl, S.InterfaceDecl):
        return LInterface(
            annotations, list(decl.modifiers), decl.name,
            [LFTP(f.name, [convert_te(b) for b in f.bounds]) for f in decl.ftps],
            [convert_te(t) for t in decl.extends],
            [convert_method(m) for m in decl.methods],
        )
    return LClass(
        annotations, list(decl.modifiers), decl.name,
        [LFTP(f.name, [convert_te(b) for b in f.bounds]) for f in decl.ftps],
        convert_te(decl.extends) if decl.extends is not None else None,
        [convert_te(t) for t in decl.implements],
        [LField([LAnnotation(a.name, list(a.args)) for a in f.annotations],
                list(f.modifiers), convert_te(f.te), f.name) for f in decl.fields],
        [convert_method(c) for c in decl.constructors],
        [convert_method(m) for m in decl.methods],
    )
