"""Deterministic rendering of projected units (``.lchor`` files).

The courtesy option adds, for every method whose parameters all became Unit,
a zero-parameter overload that injects ``Unit.id`` arguments (signature only
in interfaces, a delegating body in classes).
"""

from __future__ import annotations

from .local import (
    LAssign, LBinary, LBlock, LCall, LEnum, LExpStm, LFieldAcc, LIf,
    LInterface, LLit, LMethod, LName, LNew, LNil, LReturn, LStaticName,
    LSwitch, LThrow, LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .parser import PREC


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


def render_exp(exp, prec=-1):
    if isinstance(exp, LUnit):
        return "Unit.id"
    if isinstance(exp, LUnitCall):
        return "Unit.id(" + ", ".join(render_exp(a) for a in exp.args) + ")"
    if isinstance(exp, LLit):
        return render_value(exp.value)
    if isinstance(exp, LName):
        return exp.ident
    if isinstance(exp, LStaticName):
        return exp.name
    if isinstance(exp, LFieldAcc):
        return render_exp(exp.scope, 99) + "." + exp.name
    if isinstance(exp, LCall):
        targs = "<" + ", ".join(t.render() for t in exp.type_args) + ">" if exp.type_args else ""
        args = ", ".join(render_exp(a) for a in exp.args)
        if exp.scope is None:
            return f"{targs}{exp.name}({args})"
        return f"{render_exp(exp.scope, 99)}.{targs}{exp.name}({args})"
    if isinstance(exp, LNew):
        targs = "<" + ", ".join(t.render() for t in exp.type_args) + ">" if exp.type_args else ""
        args = ", ".join(render_exp(a) for a in exp.args)
        return f"new {exp.class_name}{targs}({args})"
    if isinstance(exp, LBinary):
        p = PREC[exp.op]
        s = f"{render_exp(exp.left, p)} {exp.op} {render_exp(exp.right, p + 1)}"
        return f"({s})" if p < prec else s
    raise TypeError(f"render_exp: {exp!r}")


def render_stm(stm, indent):
    pad = "    " * indent
    out = []
    while stm is not None and not isinstance(stm, LNil):
        if isinstance(stm, LReturn):
            out.append(pad + ("return;" if stm.value is None else f"return {render_exp(stm.value)};"))
            break
        if isinstance(stm, LThrow):
            out.append(pad + f"throw new RuntimeException({render_value(stm.message)});")
            break
        if isinstance(stm, LExpStm):
            out.append(pad + render_exp(stm.exp) + ";")
        elif isinstance(stm, LVarDecl):
            init = f" = {render_exp(stm.init)}" if stm.init is not None else ""
            out.append(pad + f"{stm.te.render()} {stm.name}{init};")
        elif isinstance(stm, LAssign):
            out.append(pad + f"{render_exp(stm.target)} {stm.op} {render_exp(stm.value)};")
        elif isinstance(stm, LIf):
            out.append(pad + f"if ({render_exp(stm.guard)}) {{")
            out.extend(render_stm(stm.then, indent + 1))
            if stm.orelse is not None and not isinstance(stm.orelse, LNil):
                out.append(pad + "} else {")
                out.extend(render_stm(stm.orelse, indent + 1))
            out.append(pad + "}")
        elif isinstance(stm, LBlock):
            out.append(pad + "{")
            out.extend(render_stm(stm.body, indent + 1))
            out.append(pad + "}")
        elif isinstance(stm, LSwitch):
            out.append(pad + f"switch ({render_exp(stm.guard)}) {{")
            for label, body in stm.cases:
                out.append(pad + f"    case {label} -> {{")
                out.extend(render_stm(body, indent + 2))
                out.append(pad + "    }")
            if stm.default is not None:
                out.append(pad + "    default -> {")
                out.extend(render_stm(stm.default, indent + 2))
                out.append(pad + "    }")
            out.append(pad + "}")
        elif isinstance(stm, LTryCatch):
            out.append(pad + "try {")
            out.extend(render_stm(stm.body, indent + 1))
            out.append(pad + "}")
            for te, name, body in stm.handlers:
                out.append(pad + f"catch ({te.render()} {name}) {{")
                out.extend(render_stm(body, indent + 1))
                out.append(pad + "}")
        else:
            raise TypeError(f"render_stm: {stm!r}")
        stm = getattr(stm, "cont", None)
    return out


def render_stm_inline(stm):
    """Single-line rendering for merge-failure messages."""
    if stm is None:
        return "<nothing>"
    lines = render_stm(stm, 0)
    if not lines:
        return "<blank>"
    return " ".join(line.strip() for line in lines)


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


def render_ftps(ftps):
    if not ftps:
        return ""
    parts = []
    for f in ftps:
        s = f.name
        if f.bounds:
            s += " extends " + " & ".join(b.render() for b in f.bounds)
        parts.append(s)
    return "<" + ", ".join(parts) + ">"


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


def render_method(m, indent, courtesy=False, in_interface=False):
    lines = render_annotations(m.annotations, indent)
    pad = "    " * indent
    mods = " ".join(m.modifiers) + " " if m.modifiers else ""
    ftps = render_ftps(m.ftps)
    if ftps:
        ftps += " "
    ret = "" if m.is_constructor else m.return_te.render() + " "
    params = ", ".join(f"{p.te.render()} {p.name}" for p in m.params)
    sig = f"{pad}{mods}{ftps}{ret}{m.name}({params})"
    if m.body is None:
        lines.append(sig + ";")
    else:
        lines.append(sig + " {")
        lines.extend(render_stm(m.body, indent + 1))
        lines.append(pad + "}")
    if courtesy:
        wrapper = _courtesy_wrapper(m, in_interface)
        if wrapper is not None:
            lines.extend(render_method(wrapper, indent, courtesy=False,
                                       in_interface=in_interface))
    return lines


def render_unit(unit, courtesy=False):
    """Full text of one projected declaration."""
    decl = unit.decl
    lines = render_annotations(decl.annotations, 0)
    mods = " ".join(decl.modifiers) + " " if decl.modifiers else ""
    if isinstance(decl, LEnum):
        lines.append(f"{mods}enum {decl.name} {{ " + ", ".join(decl.cases) + " }")
        return "\n".join(lines) + "\n"
    if isinstance(decl, LInterface):
        head = f"{mods}interface {decl.name}{render_ftps(decl.ftps)}"
        if decl.extends:
            head += " extends " + ", ".join(t.render() for t in decl.extends)
        lines.append(head + " {")
        for m in decl.methods:
            lines.extend(render_method(m, 1, courtesy, in_interface=True))
        lines.append("}")
        return "\n".join(lines) + "\n"
    head = f"{mods}class {decl.name}{render_ftps(decl.ftps)}"
    if decl.extends is not None:
        head += " extends " + decl.extends.render()
    if decl.implements:
        head += " implements " + ", ".join(t.render() for t in decl.implements)
    lines.append(head + " {")
    for f in decl.fields:
        lines.extend(render_annotations(f.annotations, 1))
        fmods = " ".join(f.modifiers) + " " if f.modifiers else ""
        lines.append(f"    {fmods}{f.te.render()} {f.name};")
    for c in decl.constructors:
        lines.extend(render_method(c, 1, courtesy))
    for m in decl.methods:
        lines.extend(render_method(m, 1, courtesy, in_interface=False))
    lines.append("}")
    return "\n".join(lines) + "\n"
