"""Per-role projection of checked choreographies into the local language.

Type expressions project by the three-case rule (own role: same name; one of
several roles: name suffixed with the declaration's formal role name at that
position; absent: Unit). Expressions strip role information while the
projecting role occurs in their type or receiver, and collapse to unit
residue otherwise. Statements follow the same discipline, except
conditionals (merge of branch projections at non-guard roles) and selections
(a switch over the received label at the receiving role). Each node class
projects through its handler in ``STM`` or ``EXP``; a statement chain is
projected in a loop along ``cont``, so it takes Python stack per level of
nesting, not per statement.
"""

from __future__ import annotations

from . import surface as S
from .diagnostics import Code, Reporter
from .local import (
    LAnnotation, LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm,
    LFTP, LField, LFieldAcc, LIf, LInterface, LLit, LMethod, LName, LNew,
    LNil, LParam, LReturn, LStaticName, LSwitch, LThrow, LTryCatch, LTE,
    LUnit, LUnitCall, LVarDecl, LocalProgram, LocalUnit, link, stm_list,
)
# The benchmark's tracer wraps ``merge_stm`` and ``big_merge`` in this module.
from .merging import MergeError, big_merge, is_noop, merge_stm, normalize_exp, normalize_stm
from .printer import render_inline, render_te
from .record import record
from .types import TAbs, TSym, TVar, TVoid, spine

UNEXPECTED_LABEL = "unexpected selection label"


class ProjectionFailed(Exception):
    pass


# --------------------------------------------------------- type projection

def _formal_role_names(checker, head):
    if isinstance(head, TSym):
        info = checker.table.get(head.name)
        if info is not None:
            return info.role_names
    if isinstance(head, TVar):
        fi = checker.var_ftp.get(head.uid)
        if fi is not None:
            return [v.name for v in fi.role_binders]
    return []


def erase_ctor(checker, t):
    """Role-erased rendering of a constructor-level type argument (a normal form)."""
    while isinstance(t, TAbs):
        t = t.body
    if isinstance(t, TVoid):
        return LTE("void")
    head, args = spine(t)
    ty_args = [a for a in args if not (isinstance(a, TVar) and a.role)]
    return LTE(head.name, [erase_ctor(checker, a) for a in ty_args])


def project_type(checker, t, role):
    """The three-case projection of a located type (a normal form) at a role."""
    if isinstance(t, TVoid):
        return LTE("void")
    head, args = spine(t)
    role_names = [a.name for a in args if isinstance(a, TVar) and a.role]
    ty_args = [a for a in args if not (isinstance(a, TVar) and a.role)]
    if role_names == [role]:
        return LTE(head.name, [erase_ctor(checker, a) for a in ty_args])
    if role in role_names:
        i = role_names.index(role)
        formals = _formal_role_names(checker, head)
        suffix = formals[i] if i < len(formals) else str(i + 1)
        return LTE(f"{head.name}_{suffix}",
                   [erase_ctor(checker, a) for a in ty_args])
    return LTE("Unit")


def project_type_name(checker, t, role):
    return render_te(project_type(checker, t, role))


def generated_name(source_name, decl_roles, role):
    """Single-role declarations keep their name; others get a role suffix."""
    if len(decl_roles) == 1:
        return source_name
    return f"{source_name}_{role}"


# ------------------------------------------------------------- projector

@record
class Projector:
    checked: object  # CheckedProgram
    reporter: Reporter
    annotate: bool = False

    def __post_init__(self):
        self.checker = self.checked._checker
        self.table = self.checked.table

    # -------------------------------------------------------------- units

    def project_program(self):
        units = []
        for info in self.table.values():
            if info.is_prelude:
                continue
            for role in info.role_names:
                try:
                    units.append(self.project_decl(info, role))
                except ProjectionFailed:
                    pass
        return LocalProgram(units)

    def project_decl(self, info, role):
        assert role in info.role_names, f"{role} is not a role of {info.name}"
        gen = generated_name(info.name, info.role_names, role)
        annotations = [LAnnotation(a.name, list(a.args)) for a in info.node.annotations]
        if self.annotate:
            annotations.append(LAnnotation(
                "Choreography", [("name", info.name), ("role", role)]))
        modifiers = list(info.node.modifiers)
        node = info.node
        if isinstance(node, S.EnumDecl):
            decl = LEnum(annotations, modifiers, gen, list(node.cases))
        elif isinstance(node, S.InterfaceDecl):
            decl = LInterface(
                annotations, modifiers, gen,
                self.project_ftps(info.ftps),
                [self.project_te(te, role) for te in node.extends],
                [self.project_method(m, role, gen) for m in info.methods],
            )
        else:
            decl = LClass(
                annotations, modifiers, gen,
                self.project_ftps(info.ftps),
                self.project_te(node.extends, role) if node.extends is not None else None,
                [self.project_te(te, role) for te in node.implements],
                self.project_fields(info, role),
                [self.project_method(c, role, gen) for c in info.constructors
                 if c.node.body is not None or c.node.params],
                [self.project_method(m, role, gen) for m in info.methods],
            )
        return LocalUnit(gen, info.name, role, decl)

    def project_te(self, te, role):
        return project_type(self.checker, self.checked.te_type(te), role)

    def project_ftps(self, ftps):
        out = []
        for fi in ftps:
            if fi.arity <= 1:
                binder = fi.role_binders[0].name if fi.role_binders else None
                bounds = [project_type(self.checker, self.checked.te_type(b), binder)
                          for b in fi.bound_tes]
                out.append(LFTP(fi.name, bounds))
            else:
                for binder in fi.role_binders:
                    bounds = [project_type(self.checker, self.checked.te_type(b), binder.name)
                              for b in fi.bound_tes]
                    out.append(LFTP(f"{fi.name}_{binder.name}", bounds))
        return out

    def project_fields(self, info, role):
        out = []
        for f in info.fields():
            if role in self.checked.type_roles(f.te):
                out.append(LField(
                    [LAnnotation(a.name, list(a.args)) for a in f.annotations],
                    list(f.modifiers), self.project_te(f.te, role), f.name))
        return out

    def project_method(self, mi, role, gen_class_name):
        node = mi.node
        annotations = [LAnnotation(a.name, list(a.args)) for a in node.annotations]
        params = [LParam(self.project_te(p.te, role), p.name) for p in node.params]
        ret = None if node.is_constructor else self.project_te(node.return_te, role)
        name = gen_class_name if node.is_constructor else node.name
        body = normalize_stm(self.project_stm(node.body, role))
        return LMethod(annotations, list(node.modifiers), self.project_ftps(mi.ftps),
                       ret, name, params, body, node.is_constructor)

    # ---------------------------------------------------------- statements

    def project_stm(self, stm, role):
        """The projection at ``role`` of the chain from ``stm``: each
        statement's own projection (``STM``), linked back to front. A
        selection at ``role`` takes the rest of the chain as the body of its
        one case. After a merged conditional that returns or throws, the rest
        is still projected, for its diagnostics, and dropped as unreachable."""
        opened = []  # per selection: the statements up to and including its switch
        out = []
        ended = False
        while stm is not None:
            got = STM[type(stm)](self, stm, role)
            if got is None or ended:
                pass
            elif type(got) is list:  # merged branches, spliced in (``merged``)
                out += got
                ended = bool(got) and type(got[-1]) in (LReturn, LThrow)
            elif type(got) is LSwitch and type(stm) is S.ExpStm:  # a selection
                out.append(got)
                opened.append(out)
                out = []
            else:
                out.append(got)
            stm = getattr(stm, "cont", None)
        head = link(out)
        for out in reversed(opened):
            switch = out[-1]
            switch.cases = [(switch.cases[0][0], head)]
            head = link(out)
        return head

    def merged(self, stm, role, branches):
        """The statements a conditional or switch projects to at a role that
        does not take its decision: the guard's residue, then the merge of
        its branches' projections, which ``project_stm`` splices into the
        chain in place of the merge's closing ``LNil``."""
        try:
            merged = big_merge(branches)
        except MergeError as e:
            self.merge_failure(stm, role, e)
            raise ProjectionFailed()
        guard = normalize_exp(self.project_exp(stm.guard, role))
        out = [] if is_noop(guard) else [LExpStm(guard, None)]
        out += stm_list(merged)  # new nodes, which ``link`` may relink
        if out and type(out[-1]) not in (LReturn, LThrow):
            out[-1].cont = None
        return out

    def switch_is_exhaustive(self, stm):
        head, _ = spine(self.checked.type_of(stm.guard))
        if isinstance(head, TSym):
            info = self.table.get(head.name)
            if info is not None and info.is_enum:
                labels = {c.label for c in stm.cases if isinstance(c.label, str)}
                return labels >= set(info.node.cases)
        return False

    def merge_failure(self, stm, role, err):
        left = render_inline(err.left)
        right = render_inline(err.right)
        self.reporter.error(
            Code.MergeFailure, stm.span,
            f"cannot merge the branches of this conditional for role '{role}': "
            f"'{left}' against '{right}'. The roles taking the decision must "
            f"inform '{role}' via a selection.")

    def selection_label(self, exp, role):
        """Case label when the selection rule fires at this role, else None."""
        if not isinstance(exp, S.Call):
            return None
        res = self.checked.resolved.get(id(exp))
        if not res or res[0] != "call":
            return None
        mi = res[1]
        if mi.annotation("SelectionMethod") is None:
            return None
        if self.checked.type_roles(exp) != {role}:
            return None
        if len(exp.args) == 1:
            arg = exp.args[0]
            if isinstance(arg, S.FieldAcc) and isinstance(arg.scope, S.StaticRef):
                return arg.name
        self.reporter.error(
            Code.BadSelectionAnnotation, exp.span,
            "selection labels must be literal enum-case accesses so receivers "
            "can branch on them.")
        raise ProjectionFailed()

    # ---------------------------------------------------------- expressions

    def project_exp(self, exp, role):
        return EXP[type(exp)](self, exp, role)

    def signature_roles(self, mi):
        """Roles mentioned by a method's parameter and return types."""
        out = set()
        tes = [p.te for p in mi.node.params]
        if mi.node.return_te is not None:
            tes.append(mi.node.return_te)
        for te in tes:
            if id(te) in self.checked.te_types:
                out |= self.checked.type_roles(te)
        return out

    def static_name(self, class_name, actual_roles, role):
        info = self.table.get(class_name)
        formals = info.role_names if info is not None else []
        if actual_roles == [role] or len(actual_roles) <= 1:
            return class_name
        i = actual_roles.index(role)
        suffix = formals[i] if i < len(formals) else str(i + 1)
        return f"{class_name}_{suffix}"

    def unit_residue(self, args):
        """Unit.id(...) over the effectful residue; discardable parts drop
        here so the normaliser's single-argument collapse only ever carries
        genuine payloads."""
        effectful = [a for a in args if not is_noop(a)]
        if not effectful:
            return LUnit()
        return LUnitCall(effectful)


# Each statement handler ``f(projector, stm, role)`` returns the projection of
# ``stm`` alone, with its ``cont`` unset, or None when ``stm`` projects to
# nothing at ``role``; a merged conditional gives a list (``merged``).

def _exp_stm(p, stm, role):
    label = p.selection_label(stm.exp, role)
    if label is not None:  # the case's body is set by ``project_stm``
        return LSwitch(p.project_exp(stm.exp, role), [(label, None)],
                       LThrow(UNEXPECTED_LABEL), LNil())
    if role in p.checked.roles_of(stm.exp):
        return LExpStm(p.project_exp(stm.exp, role), None)
    return None


def _var_decl(p, stm, role):
    if role in p.checked.type_roles(stm.te):
        init = p.project_exp(stm.init, role) if stm.init is not None else None
        return LVarDecl(p.project_te(stm.te, role), stm.name, init, None)
    if stm.init is not None and role in p.checked.roles_of(stm.init):
        return LExpStm(p.project_exp(stm.init, role), None)
    return None


def _assign(p, stm, role):
    if role in p.checked.type_roles(stm.target):
        return LAssign(p.project_exp(stm.target, role), stm.op,
                       p.project_exp(stm.value, role), None)
    if role in p.checked.roles_of(stm.target) | p.checked.roles_of(stm.value):
        return LExpStm(LUnitCall([p.project_exp(stm.target, role),
                                  p.project_exp(stm.value, role)]), None)
    return None


def _if(p, stm, role):
    if p.checked.type_roles(stm.guard) == {role}:
        return LIf(p.project_exp(stm.guard, role), p.project_stm(stm.then, role),
                   p.project_stm(stm.orelse, role), None)
    return p.merged(stm, role, [p.project_stm(stm.then, role),
                                p.project_stm(stm.orelse, role)])


def _switch(p, stm, role):
    if role in p.checked.type_roles(stm.guard):
        default = p.project_stm(stm.default, role)
        return LSwitch(p.project_exp(stm.guard, role),
                       [(label, p.project_stm(body, role)) for label, body in stm.cases],
                       default, None)
    branches = [p.project_stm(body, role) for _, body in stm.cases]
    if stm.default is not None:
        branches.append(p.project_stm(stm.default, role))
    elif not p.switch_is_exhaustive(stm):
        # Without a default, the no-match path runs nothing at the guard
        # role; other roles must reconcile with that too.
        branches.append(LNil())
    return p.merged(stm, role, branches)


def _try_catch(p, stm, role):
    handlers = [(p.project_te(te, role), name, p.project_stm(body, role))
                for te, name, body in stm.handlers if role in p.checked.type_roles(te)]
    return LTryCatch(p.project_stm(stm.body, role), handlers, None)


STM = {
    S.Nil: lambda p, stm, role: LNil(),
    S.Return: lambda p, stm, role: LReturn(
        p.project_exp(stm.value, role) if stm.value is not None else None),
    S.ExpStm: _exp_stm,
    S.VarDecl: _var_decl,
    S.Assign: _assign,
    S.If: _if,
    S.Block: lambda p, stm, role: LBlock(p.project_stm(stm.body, role), None),
    S.Switch: _switch,
    S.TryCatch: _try_catch,
}


# Each expression handler ``f(projector, exp, role)`` returns the projection
# of ``exp`` at ``role``: its role-free form while ``role`` takes part in it,
# else its unit residue.

def _field_acc(p, exp, role):
    if role in p.checked.type_roles(exp):
        return LFieldAcc(p.project_exp(exp.scope, role), exp.name)
    if type(exp.scope) is S.StaticRef:
        return LUnit()
    return p.unit_residue([p.project_exp(exp.scope, role)])


def _call(p, exp, role):
    ty_args = [erase_ctor(p.checker, p.checked.te_type(te)) for te in exp.type_args]
    args = [p.project_exp(a, role) for a in exp.args]
    scope = exp.scope
    if scope is None or type(scope) is S.Name and scope.ident == "this":
        # Calls on the enclosing declaration: instance methods exist in
        # every role's unit, but a static member belongs only to the roles
        # its signature mentions, or to all of its declaration's roles when
        # the signature mentions none.
        res = p.checked.resolved.get(id(exp))
        mi = res[1] if res and res[0] == "call" else None
        if mi is not None and mi.is_static:
            if role not in (p.signature_roles(mi) or mi.owner.role_names):
                return p.unit_residue(args)
        return LCall(None if scope is None else LName("this"), ty_args, exp.name, args)
    if type(scope) is S.StaticRef:
        if role in scope.roles:
            return LCall(p.project_exp(scope, role), ty_args, exp.name, args)
        return p.unit_residue(args)
    if role in p.checked.type_roles(scope):
        return LCall(p.project_exp(scope, role), ty_args, exp.name, args)
    # The receiver may carry effects for this role (e.g. a com whose result
    # a foreign role consumes); keep its residue with the args.
    return p.unit_residue([p.project_exp(scope, role)] + args)


def _new(p, exp, role):
    args = [p.project_exp(a, role) for a in exp.args]
    if role not in exp.roles:
        return p.unit_residue(args)
    info = p.table.get(exp.class_name)
    name = exp.class_name if info is None else generated_name(
        exp.class_name, info.role_names, info.role_names[exp.roles.index(role)])
    ty_args = [erase_ctor(p.checker, p.checked.te_type(te)) for te in exp.type_args]
    return LNew(name, ty_args, args)


def _binary(p, exp, role):
    if role in p.checked.roles_of(exp):
        return LBinary(p.project_exp(exp.left, role), exp.op, p.project_exp(exp.right, role))
    return LUnit()


EXP = {
    S.Literal: lambda p, exp, role: LLit(exp.value) if role in exp.roles else LUnit(),
    S.Name: lambda p, exp, role: (
        LName(exp.ident) if role in p.checked.type_roles(exp) else LUnit()),
    S.StaticRef: lambda p, exp, role: LStaticName(p.static_name(exp.name, exp.roles, role)),
    S.FieldAcc: _field_acc,
    S.Call: _call,
    S.New: _new,
    S.Binary: _binary,
}


def project_program(checked, reporter=None, annotate=False):
    reporter = reporter if reporter is not None else Reporter()
    projector = Projector(checked, reporter, annotate)
    return projector.project_program(), reporter
