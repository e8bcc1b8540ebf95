"""Deterministic pretty-printer for surface ASTs.

Used by the parser round-trip tests; also renders role lists back in the
``@(A, B)`` spelling and literals as ``lit@A``.
"""

from __future__ import annotations

from . import surface as S
from .parser import PREC


def render_roles(roles):
    if not roles:
        return ""
    if len(roles) == 1:
        return f"@{roles[0]}"
    return "@(" + ", ".join(roles) + ")"


def render_te(te):
    if te.is_void:
        return "void"
    s = te.name + render_roles(te.roles)
    if te.args:
        s += "<" + ", ".join(render_te(a) for a in te.args) + ">"
    return s


def render_literal_value(value):
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
    if isinstance(exp, S.Literal):
        s = render_literal_value(exp.value)
        if exp.is_list_sugar:
            return s + "@[" + ", ".join(exp.roles) + "]"
        if exp.roles:
            if exp.value is None and len(exp.roles) > 1:
                return s + "@(" + ", ".join(exp.roles) + ")"
            return s + f"@{exp.roles[0]}"
        return s
    if isinstance(exp, S.Name):
        return exp.ident
    if isinstance(exp, S.StaticRef):
        return exp.name + render_roles(exp.roles)
    if isinstance(exp, S.FieldAcc):
        return render_exp(exp.scope, 99) + "." + exp.name
    if isinstance(exp, S.Call):
        targs = "<" + ", ".join(render_te(t) for t in exp.type_args) + ">" if exp.type_args else ""
        args = ", ".join(render_exp(a) for a in exp.args)
        if exp.scope is None:
            return f"{targs}{exp.name}({args})"
        return f"{render_exp(exp.scope, 99)}.{targs}{exp.name}({args})"
    if isinstance(exp, S.New):
        targs = "<" + ", ".join(render_te(t) for t in exp.type_args) + ">" if exp.type_args else ""
        args = ", ".join(render_exp(a) for a in exp.args)
        return f"new {exp.class_name}{render_roles(exp.roles)}{targs}({args})"
    if isinstance(exp, S.Binary):
        p = PREC[exp.op]
        s = f"{render_exp(exp.left, p)} {exp.op} {render_exp(exp.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(exp, S.Chain):
        s = render_exp(exp.first, 0)
        for link in exp.links:
            targs = "<" + ", ".join(render_te(t) for t in link.type_args) + ">" if link.type_args else ""
            if link.method == "new":
                s += f" >> {link.new_class}{render_roles(link.new_roles)}{targs}::new"
            else:
                s += f" >> {render_exp(link.target, 99)}::{targs}{link.method}"
        return f"({s})" if prec >= 0 else s
    raise TypeError(f"render_exp: {exp!r}")


def render_stm(stm, indent):
    pad = "    " * indent
    out = []
    while stm is not None and not isinstance(stm, S.Nil):
        if isinstance(stm, S.Return):
            out.append(pad + ("return;" if stm.value is None else f"return {render_exp(stm.value)};"))
            break
        if isinstance(stm, S.Throw):
            out.append(pad + f'throw new RuntimeException({render_literal_value(stm.message)});')
            break
        if isinstance(stm, S.ExpStm):
            out.append(pad + render_exp(stm.exp) + ";")
        elif isinstance(stm, S.VarDecl):
            init = f" = {render_exp(stm.init)}" if stm.init is not None else ""
            out.append(pad + f"{render_te(stm.te)} {stm.name}{init};")
        elif isinstance(stm, S.Assign):
            out.append(pad + f"{render_exp(stm.target)} {stm.op} {render_exp(stm.value)};")
        elif isinstance(stm, S.If):
            out.append(pad + f"if ({render_exp(stm.guard)}) {{")
            out.extend(render_stm(stm.then, indent + 1))
            if stm.orelse is not None and not isinstance(stm.orelse, S.Nil):
                out.append(pad + "} else {")
                out.extend(render_stm(stm.orelse, indent + 1))
            out.append(pad + "}")
        elif isinstance(stm, S.Block):
            out.append(pad + "{")
            out.extend(render_stm(stm.body, indent + 1))
            out.append(pad + "}")
        elif isinstance(stm, S.Switch):
            out.append(pad + f"switch ({render_exp(stm.guard)}) {{")
            for c in stm.cases:
                label = c.label if isinstance(c.label, str) else render_literal_value(c.label)
                out.append(pad + f"    case {label} -> {{")
                out.extend(render_stm(c.body, indent + 2))
                out.append(pad + "    }")
            if stm.default is not None:
                out.append(pad + "    default -> {")
                out.extend(render_stm(stm.default, indent + 2))
                out.append(pad + "    }")
            out.append(pad + "}")
        elif isinstance(stm, S.TryCatch):
            out.append(pad + "try {")
            out.extend(render_stm(stm.body, indent + 1))
            out.append(pad + "}")
            for h in stm.handlers:
                out.append(pad + f"catch ({render_te(h.te)} {h.name}) {{")
                out.extend(render_stm(h.body, indent + 1))
                out.append(pad + "}")
        else:
            raise TypeError(f"render_stm: {stm!r}")
        stm = getattr(stm, "cont", None)
    return out


def render_annotation(an):
    if not an.args:
        return f"@{an.name}"
    args = ", ".join(f"{k} = {render_literal_value(v)}" for k, v in an.args)
    return f"@{an.name}({args})"


def _header(annotations, modifiers, indent=0):
    pad = "    " * indent
    lines = [pad + render_annotation(a) for a in annotations]
    prefix = pad + (" ".join(modifiers) + " " if modifiers else "")
    return lines, prefix


def render_ftps(ftps):
    if not ftps:
        return ""
    parts = []
    for f in ftps:
        s = f.name + render_roles(f.roles)
        if f.bounds:
            s += " extends " + " & ".join(render_te(b) for b in f.bounds)
        parts.append(s)
    return "<" + ", ".join(parts) + ">"


def render_method(m, indent):
    lines, prefix = _header(m.annotations, m.modifiers, indent)
    ftps = render_ftps(m.ftps)
    if ftps:
        ftps += " "
    ret = "" if m.is_constructor else render_te(m.return_te) + " "
    params = ", ".join(f"{render_te(p.te)} {p.name}" for p in m.params)
    sig = f"{prefix}{ftps}{ret}{m.name}({params})"
    if m.body is None:
        lines.append(sig + ";")
    else:
        lines.append(sig + " {")
        lines.extend(render_stm(m.body, indent + 1))
        lines.append("    " * indent + "}")
    return lines


def render_decl(decl):
    lines, prefix = _header(decl.annotations, decl.modifiers)
    if isinstance(decl, S.EnumDecl):
        lines.append(f"{prefix}enum {decl.name}{render_roles(decl.roles)} {{ " + ", ".join(decl.cases) + " }")
        return lines
    if isinstance(decl, S.InterfaceDecl):
        head = f"{prefix}interface {decl.name}{render_roles(decl.roles)}{render_ftps(decl.ftps)}"
        if decl.extends:
            head += " extends " + ", ".join(render_te(t) for t in decl.extends)
        lines.append(head + " {")
        for m in decl.methods:
            lines.extend(render_method(m, 1))
        lines.append("}")
        return lines
    head = f"{prefix}class {decl.name}{render_roles(decl.roles)}{render_ftps(decl.ftps)}"
    if decl.extends is not None:
        head += " extends " + render_te(decl.extends)
    if decl.implements:
        head += " implements " + ", ".join(render_te(t) for t in decl.implements)
    lines.append(head + " {")
    for f in decl.fields:
        flines, fprefix = _header(f.annotations, f.modifiers, 1)
        lines.extend(flines)
        lines.append(f"{fprefix}{render_te(f.te)} {f.name};")
    for c in decl.constructors:
        lines.extend(render_method(c, 1))
    for m in decl.methods:
        lines.extend(render_method(m, 1))
    lines.append("}")
    return lines


def render_program(program):
    lines = []
    for decl in program.decls:
        lines.extend(render_decl(decl))
        lines.append("")
    return "\n".join(lines)
