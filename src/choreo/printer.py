"""The one printer of both trees: surface programs (``render_program``) and
projected units (``render_unit``, the text of a ``.lchor`` file).

Both trees name their fields alike, so each form is printed by one function
for both, found by the node's class in ``EXP`` or ``STM``. A surface node's
roles print as ``@A``, ``@(A, B)`` or, for list sugar, ``@[A, B]``; a local
node has no ``roles``.

The courtesy option adds, for every method whose parameters all became Unit,
a zero-parameter overload that injects ``Unit.id`` arguments (signature only
in interfaces, a delegating body in classes).
"""

from __future__ import annotations

from . import surface as S
from .local import (
    LAssign, LBinary, LBlock, LCall, LEnum, LExpStm, LFieldAcc, LIf,
    LInterface, LLit, LMethod, LName, LNew, LNil, LReturn, LStaticName,
    LSwitch, LThrow, LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .parser import PREC
from .record import replace


def render_roles(roles):
    if not roles:
        return ""
    if len(roles) == 1:
        return f"@{roles[0]}"
    return "@(" + ", ".join(roles) + ")"


def render_te(te):
    """A type expression of either tree; ``void`` is a name too."""
    s = te.name
    roles = getattr(te, "roles", None)
    if roles:
        s += render_roles(roles)
    if te.args:
        s += "<" + ", ".join(map(render_te, te.args)) + ">"
    return s


def render_value(value):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        body = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{body}"'
    return repr(value)


# ------------------------------------------------------------- expressions

def render_exp(exp, prec=-1):
    return EXP[type(exp)](exp, prec)


def _type_args(type_args):
    return "<" + ", ".join(map(render_te, type_args)) + ">" if type_args else ""


def _literal(exp, prec):
    if getattr(exp, "is_list_sugar", False):
        return render_value(exp.value) + "@[" + ", ".join(exp.roles) + "]"
    return render_value(exp.value) + render_roles(getattr(exp, "roles", None))


def _call(exp, prec):
    args = ", ".join(map(render_exp, exp.args))
    if exp.scope is None:
        return f"{_type_args(exp.type_args)}{exp.name}({args})"
    return f"{render_exp(exp.scope, 99)}.{_type_args(exp.type_args)}{exp.name}({args})"


def _new(exp, prec):
    args = ", ".join(map(render_exp, exp.args))
    roles = render_roles(getattr(exp, "roles", None))
    return f"new {exp.class_name}{roles}{_type_args(exp.type_args)}({args})"


def _binary(exp, prec):
    p = PREC[exp.op]
    s = f"{render_exp(exp.left, p)} {exp.op} {render_exp(exp.right, p + 1)}"
    return f"({s})" if p < prec else s


def _chain(exp, prec):
    s = render_exp(exp.first, 0)
    for link in exp.links:
        targs = _type_args(link.type_args)
        if link.method == "new":
            s += f" >> {link.new_class}{render_roles(link.new_roles)}{targs}::new"
        else:
            s += f" >> {render_exp(link.target, 99)}::{targs}{link.method}"
    return f"({s})" if prec >= 0 else s


# Each expression class of both trees -> its printer ``f(exp, prec)``:
# ``exp``'s text, in parentheses when its operator binds looser than ``prec``.
EXP = {cls: render for *classes, render in [
    (S.Literal, LLit, _literal),
    (S.Name, LName, lambda exp, prec: exp.ident),
    (S.StaticRef, LStaticName,
     lambda exp, prec: exp.name + render_roles(getattr(exp, "roles", None))),
    (S.FieldAcc, LFieldAcc, lambda exp, prec: render_exp(exp.scope, 99) + "." + exp.name),
    (S.Call, LCall, _call),
    (S.New, LNew, _new),
    (S.Binary, LBinary, _binary),
    (S.Chain, _chain),
    (LUnit, lambda exp, prec: "Unit.id"),
    (LUnitCall, lambda exp, prec: "Unit.id(" + ", ".join(map(render_exp, exp.args)) + ")"),
] for cls in classes}


# -------------------------------------------------------------- statements

def render_stm(stm, indent):
    """The lines of ``stm`` and the statements after it in its block."""
    pad = "    " * indent
    out = []
    while stm is not None and type(stm) is not S.Nil and type(stm) is not LNil:
        STM[type(stm)](stm, indent, pad, out)
        stm = getattr(stm, "cont", None)  # a return or throw has none
    return out


def _return(stm, indent, pad, out):
    out.append(pad + ("return;" if stm.value is None else f"return {render_exp(stm.value)};"))


def _var_decl(stm, indent, pad, out):
    init = f" = {render_exp(stm.init)}" if stm.init is not None else ""
    out.append(pad + f"{render_te(stm.te)} {stm.name}{init};")


def _if(stm, indent, pad, out):
    out.append(pad + f"if ({render_exp(stm.guard)}) {{")
    out.extend(render_stm(stm.then, indent + 1))
    orelse = render_stm(stm.orelse, indent + 1)
    if orelse:
        out.append(pad + "} else {")
        out.extend(orelse)
    out.append(pad + "}")


def _block(stm, indent, pad, out):
    out.append(pad + "{")
    out.extend(render_stm(stm.body, indent + 1))
    out.append(pad + "}")


def _switch(stm, indent, pad, out):
    out.append(pad + f"switch ({render_exp(stm.guard)}) {{")
    for label, body in stm.cases:  # a label is an enum case's name or a literal
        out.append(pad + f"    case {label if type(label) is str else render_exp(label)} -> {{")
        out.extend(render_stm(body, indent + 2))
        out.append(pad + "    }")
    if stm.default is not None:
        out.append(pad + "    default -> {")
        out.extend(render_stm(stm.default, indent + 2))
        out.append(pad + "    }")
    out.append(pad + "}")


def _try_catch(stm, indent, pad, out):
    out.append(pad + "try {")
    out.extend(render_stm(stm.body, indent + 1))
    out.append(pad + "}")
    for te, name, body in stm.handlers:
        out.append(pad + f"catch ({render_te(te)} {name}) {{")
        out.extend(render_stm(body, indent + 1))
        out.append(pad + "}")


# Each statement class of both trees -> its printer ``f(stm, indent, pad,
# out)``, which appends the lines of ``stm`` alone to ``out``.
STM = {cls: render for *classes, render in [
    (S.Return, LReturn, _return),
    (S.Throw, LThrow,
     lambda stm, indent, pad, out: out.append(
         pad + f"throw new RuntimeException({render_value(stm.message)});")),
    (S.ExpStm, LExpStm, lambda stm, indent, pad, out: out.append(pad + render_exp(stm.exp) + ";")),
    (S.VarDecl, LVarDecl, _var_decl),
    (S.Assign, LAssign,
     lambda stm, indent, pad, out: out.append(
         pad + f"{render_exp(stm.target)} {stm.op} {render_exp(stm.value)};")),
    (S.If, LIf, _if),
    (S.Block, LBlock, _block),
    (S.Switch, LSwitch, _switch),
    (S.TryCatch, LTryCatch, _try_catch),
] for cls in classes}


def render_stm_inline(stm):
    """Single-line rendering for merge-failure messages."""
    if stm is None:
        return "<nothing>"
    lines = render_stm(stm, 0)
    if not lines:
        return "<blank>"
    return " ".join(line.strip() for line in lines)


# ------------------------------------------------------------ declarations

def render_annotations(annotations, indent):
    pad = "    " * indent
    out = []
    for a in annotations:
        if a.args:
            args = ", ".join(f"{k} = {render_value(v)}" for k, v in a.args)
            out.append(pad + f"@{a.name}({args})")
        else:
            out.append(pad + f"@{a.name}")
    return out


def _modifiers(modifiers):
    return " ".join(modifiers) + " " if modifiers else ""


def render_ftps(ftps):
    if not ftps:
        return ""
    parts = []
    for f in ftps:
        s = f.name + render_roles(getattr(f, "roles", None))
        if f.bounds:
            s += " extends " + " & ".join(map(render_te, f.bounds))
        parts.append(s)
    return "<" + ", ".join(parts) + ">"


def render_method(m, indent):
    lines = render_annotations(m.annotations, indent)
    pad = "    " * indent
    ftps = render_ftps(m.ftps)
    if ftps:
        ftps += " "
    ret = "" if m.is_constructor else render_te(m.return_te) + " "
    params = ", ".join([f"{render_te(p.te)} {p.name}" for p in m.params])
    sig = f"{pad}{_modifiers(m.modifiers)}{ftps}{ret}{m.name}({params})"
    if m.body is None:
        lines.append(sig + ";")
    else:
        lines.append(sig + " {")
        lines.extend(render_stm(m.body, indent + 1))
        lines.append(pad + "}")
    return lines


def render_decl(decl):
    """The lines of an enum, interface or class of either tree."""
    lines = render_annotations(decl.annotations, 0)
    head = _modifiers(decl.modifiers)
    name = decl.name + render_roles(getattr(decl, "roles", None))
    if isinstance(decl, (S.EnumDecl, LEnum)):
        lines.append(f"{head}enum {name} {{ " + ", ".join(decl.cases) + " }")
        return lines
    if isinstance(decl, (S.InterfaceDecl, LInterface)):
        head += f"interface {name}{render_ftps(decl.ftps)}"
        if decl.extends:
            head += " extends " + ", ".join(map(render_te, decl.extends))
        lines.append(head + " {")
    else:
        head += f"class {name}{render_ftps(decl.ftps)}"
        if decl.extends is not None:
            head += " extends " + render_te(decl.extends)
        if decl.implements:
            head += " implements " + ", ".join(map(render_te, decl.implements))
        lines.append(head + " {")
        for f in decl.fields:
            lines.extend(render_annotations(f.annotations, 1))
            lines.append(f"    {_modifiers(f.modifiers)}{render_te(f.te)} {f.name};")
        for c in decl.constructors:
            lines.extend(render_method(c, 1))
    for m in decl.methods:
        lines.extend(render_method(m, 1))
    lines.append("}")
    return lines


def render_program(program):
    """The text of a surface program, one blank line after each declaration."""
    lines = []
    for decl in program.decls:
        lines.extend(render_decl(decl))
        lines.append("")
    return "\n".join(lines)


def _courtesy_wrapper(method, in_interface):
    params_all_unit = method.params and all(p.te.name == "Unit" for p in method.params)
    if not params_all_unit or method.is_constructor:
        return None
    call = LCall(None, [], method.name, [LUnit() for _ in method.params])
    if in_interface or method.body is None:
        body = None
    elif method.return_te is not None and method.return_te.name == "void":
        body = LExpStm(call, LNil())
    else:
        body = LReturn(call)
    return LMethod(list(method.annotations), list(method.modifiers), list(method.ftps),
                   method.return_te, method.name, [], body, False)


def render_unit(unit, courtesy=False):
    """Full text of one projected declaration; with ``courtesy``, each
    method's wrapper follows it."""
    decl = unit.decl
    if courtesy and not isinstance(decl, LEnum):
        in_interface = isinstance(decl, LInterface)
        methods = [(m, _courtesy_wrapper(m, in_interface)) for m in decl.methods]
        decl = replace(decl, methods=[m for pair in methods for m in pair if m is not None])
    return "\n".join(render_decl(decl)) + "\n"
