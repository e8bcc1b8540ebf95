"""Reader for printed ``.lchor`` units.

Reuses the surface parser in its role-free mode and converts the result to
the local AST with one table, ``LOCAL``: each surface node reads back as its
local class, built from the surface node's fields of the same names. The
only other rules read ``Unit.id`` and ``Unit.id(...)`` as the unit forms and
a switch case or catch clause as a tuple. A block's ``cont`` chain is read
in a loop, so reading takes Python stack per level of nesting, not per
statement. Static scopes and plain names are textually identical in the
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
    LUnitCall, LVarDecl, LocalUnit, link,
)
from .parser import Parser
from .record import fields
from .span import SourceFile


def parse_local_unit(text, name="<local>"):
    reporter = Reporter()
    parser = Parser(SourceFile(name, text), reporter, local_mode=True)
    decls = parser.parse_program()
    if reporter.has_errors():
        raise DiagnosticError(reporter.errors[0])
    if len(decls) != 1:
        raise ValueError(f"expected exactly one declaration, found {len(decls)}")
    decl = convert(decls[0])
    mark_static_scopes(decl)
    return LocalUnit(decl.name, decl.name, "<reparsed>", decl)


def mark_static_scopes(decl):
    """Makes each call or field scope of ``decl`` that names no parameter,
    local variable or field of it a static name."""
    members = names = {"this"} | {f.name for f in getattr(decl, "fields", [])}
    for node in S.walk(decl):  # each name comes before its uses
        if isinstance(node, LMethod):
            names = members | {p.name for p in node.params}
        elif isinstance(node, LVarDecl):
            names.add(node.name)
        elif isinstance(node, LTryCatch):
            names.update(name for _, name, _ in node.handlers)
        elif (isinstance(node, (LCall, LFieldAcc)) and isinstance(node.scope, LName)
                and node.scope.ident not in names):
            node.scope = LStaticName(node.scope.ident)


# Each surface class -> the local class it reads back as. A switch case and a
# catch clause read back as the tuple they unpack as.
LOCAL = {surface: local for *classes, local in [
    (S.TE, LTE), (S.Literal, LLit), (S.Name, LName), (S.FieldAcc, LFieldAcc),
    (S.Call, LCall), (S.New, LNew), (S.Binary, LBinary), (S.Nil, LNil),
    (S.Return, LReturn), (S.Throw, LThrow), (S.ExpStm, LExpStm),
    (S.VarDecl, LVarDecl), (S.Assign, LAssign), (S.If, LIf), (S.Block, LBlock),
    (S.Switch, LSwitch), (S.TryCatch, LTryCatch), (S.SwitchCase, S.CatchClause, tuple),
    (S.Annotation, LAnnotation), (S.FTP, LFTP), (S.Param, LParam),
    (S.Method, LMethod), (S.FieldDecl, LField), (S.EnumDecl, LEnum),
    (S.InterfaceDecl, LInterface), (S.ClassDecl, LClass),
] for surface in classes}


def convert(value):
    """The local form of a surface node, list or tuple; any other value as it
    is. A statement's ``cont`` chain is read in a loop."""
    cls = type(value)
    if cls is list or cls is tuple:
        return cls(map(convert, value))
    if cls not in LOCAL:
        return value
    out = []
    while value is not None:
        out.append(convert_node(value))
        value = getattr(value, "cont", None)
    return link(out)


def convert_node(node):
    """The local form of one surface node, its ``cont`` left None, and a
    field the surface node has not (a slot) None."""
    scope = getattr(node, "scope", None)
    if type(scope) is S.Name and scope.ident == "Unit" and node.name == "id":
        return LUnit() if type(node) is S.FieldAcc else LUnitCall(convert(node.args))
    local = LOCAL[type(node)]
    if local is tuple:
        return tuple(map(convert, node))
    return local(*[None if name == "cont" else convert(getattr(node, name, None))
                   for name in fields(local)])
