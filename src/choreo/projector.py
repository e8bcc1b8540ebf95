"""Per-role projection of checked choreographies into the local language.

Type expressions project by the three-case rule (own role: same name; one of
several roles: name suffixed with the declaration's formal role name at that
position; absent: Unit). Expressions strip role information while the
projecting role occurs in their type or receiver, and collapse to unit
residue otherwise. Statements follow the same discipline, except
conditionals (merge of branch projections at non-guard roles) and selections
(a switch over the received label at the receiving role).
"""

from __future__ import annotations


from . import surface as S
from .diagnostics import Code, Reporter
from .local import (
    LAnnotation, LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm,
    LFTP, LField, LFieldAcc, LIf, LInterface, LLit, LMethod, LName, LNew,
    LNil, LParam, LReturn, LStaticName, LSwitch, LThrow, LTryCatch, LTE,
    LUnit, LUnitCall, LVarDecl, LocalProgram, LocalUnit, concat_stm,
)
from .merging import MergeError, big_merge, is_noop, merge_stm, normalize_exp, normalize_stm
from .printer import render_stm_inline, render_te
from .record import record
from .types import TAbs, TSym, TVar, TVoid, spine

UNEXPECTED_LABEL = "unexpected selection label"


class ProjectionFailed(Exception):
    pass


# --------------------------------------------------------- type projection

def _head_name(head):
    return head.name


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
    return LTE(_head_name(head), [erase_ctor(checker, a) for a in ty_args])


def project_type(checker, t, role):
    """The three-case projection of a located type (a normal form) at a role."""
    if isinstance(t, TVoid):
        return LTE("void")
    head, args = spine(t)
    role_names = [a.name for a in args if isinstance(a, TVar) and a.role]
    ty_args = [a for a in args if not (isinstance(a, TVar) and a.role)]
    if role_names == [role]:
        return LTE(_head_name(head), [erase_ctor(checker, a) for a in ty_args])
    if role in role_names:
        i = role_names.index(role)
        formals = _formal_role_names(checker, head)
        suffix = formals[i] if i < len(formals) else str(i + 1)
        return LTE(f"{_head_name(head)}_{suffix}",
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
                [self.project_method(info, m, role, gen) for m in info.methods],
            )
        else:
            decl = LClass(
                annotations, modifiers, gen,
                self.project_ftps(info.ftps),
                self.project_te(node.extends, role) if node.extends is not None else None,
                [self.project_te(te, role) for te in node.implements],
                self.project_fields(info, role),
                [self.project_method(info, c, role, gen) for c in info.constructors
                 if c.node.body is not None or c.node.params],
                [self.project_method(info, m, role, gen) for m in info.methods],
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

    def project_method(self, info, mi, role, gen_class_name):
        node = mi.node
        annotations = [LAnnotation(a.name, list(a.args)) for a in node.annotations]
        params = []
        for p in node.params:
            params.append(LParam(self.project_te(p.te, role), p.name))
        if node.is_constructor:
            ret = None
            name = gen_class_name
        else:
            ret = self.project_te(node.return_te, role)
            name = node.name
        body = None
        if node.body is not None:
            try:
                body = normalize_stm(self.project_stm(node.body, role))
            except RecursionError:  # projection recurses per statement
                self.reporter.error(Code.InternalError, node.span,
                                    f"method '{name}' of '{info.name}' is nested too deeply "
                                    f"to project at {role}.")
        return LMethod(annotations, list(node.modifiers), self.project_ftps(mi.ftps),
                       ret, name, params, body, node.is_constructor)

    # ---------------------------------------------------------- statements

    def project_stm(self, stm, role):
        if stm is None:
            return None
        if isinstance(stm, S.Nil):
            return LNil()
        if isinstance(stm, S.Return):
            value = self.project_exp(stm.value, role) if stm.value is not None else None
            return LReturn(value)
        if isinstance(stm, S.ExpStm):
            label = self.selection_label(stm.exp, role)
            if label is not None:
                inner = self.project_stm(stm.cont, role)
                return LSwitch(
                    self.project_exp(stm.exp, role),
                    [(label, inner)],
                    LThrow(UNEXPECTED_LABEL),
                    LNil(),
                )
            if role in self.checked.roles_of(stm.exp):
                return LExpStm(self.project_exp(stm.exp, role),
                               self.project_stm(stm.cont, role))
            return self.project_stm(stm.cont, role)
        if isinstance(stm, S.VarDecl):
            if role in self.checked.type_roles(stm.te):
                init = self.project_exp(stm.init, role) if stm.init is not None else None
                return LVarDecl(self.project_te(stm.te, role), stm.name, init,
                                self.project_stm(stm.cont, role))
            if stm.init is not None and role in self.checked.roles_of(stm.init):
                return LExpStm(self.project_exp(stm.init, role),
                               self.project_stm(stm.cont, role))
            return self.project_stm(stm.cont, role)
        if isinstance(stm, S.Assign):
            if role in self.checked.type_roles(stm.target):
                return LAssign(self.project_exp(stm.target, role), stm.op,
                               self.project_exp(stm.value, role),
                               self.project_stm(stm.cont, role))
            involved = self.checked.roles_of(stm.target) | self.checked.roles_of(stm.value)
            if role in involved:
                residue = LUnitCall([self.project_exp(stm.target, role),
                                     self.project_exp(stm.value, role)])
                return LExpStm(residue, self.project_stm(stm.cont, role))
            return self.project_stm(stm.cont, role)
        if isinstance(stm, S.If):
            if self.checked.type_roles(stm.guard) == {role}:
                return LIf(self.project_exp(stm.guard, role),
                           self.project_stm(stm.then, role),
                           self.project_stm(stm.orelse, role),
                           self.project_stm(stm.cont, role))
            then_p = normalize_stm(self.project_stm(stm.then, role))
            else_p = normalize_stm(self.project_stm(stm.orelse, role))
            try:
                merged = merge_stm(then_p, else_p)
            except MergeError as e:
                self.merge_failure(stm, role, e)
                raise ProjectionFailed()
            return self.attach_residue(stm.guard, role, merged, stm.cont)
        if isinstance(stm, S.Block):
            return LBlock(self.project_stm(stm.body, role), self.project_stm(stm.cont, role))
        if isinstance(stm, S.Switch):
            if role in self.checked.type_roles(stm.guard):
                default = (self.project_stm(stm.default, role)
                           if stm.default is not None else None)
                return LSwitch(
                    self.project_exp(stm.guard, role),
                    [(label, self.project_stm(body, role)) for label, body in stm.cases],
                    default,
                    self.project_stm(stm.cont, role),
                )
            bodies = [c.body for c in stm.cases]
            if stm.default is not None:
                bodies.append(stm.default)
            projected = [self.project_stm(b, role) for b in bodies]
            if stm.default is None and not self.switch_is_exhaustive(stm):
                # Without a default, the no-match path runs nothing at the
                # guard role; other roles must reconcile with that too.
                projected.append(LNil())
            try:
                merged = big_merge(projected)
            except MergeError as e:
                self.merge_failure(stm, role, e)
                raise ProjectionFailed()
            return self.attach_residue(stm.guard, role, merged, stm.cont)
        if isinstance(stm, S.TryCatch):
            handlers = []
            for h in stm.handlers:
                if role in self.checked.type_roles(h.te):
                    handlers.append((self.project_te(h.te, role), h.name,
                                     self.project_stm(h.body, role)))
            return LTryCatch(self.project_stm(stm.body, role), handlers,
                             self.project_stm(stm.cont, role))
        raise TypeError(f"project_stm: {stm!r}")

    def switch_is_exhaustive(self, stm):
        head, _ = spine(self.checked.type_of(stm.guard))
        if isinstance(head, TSym):
            info = self.table.get(head.name)
            if info is not None and info.is_enum:
                labels = {c.label for c in stm.cases if isinstance(c.label, str)}
                return labels >= set(info.node.cases)
        return False

    def attach_residue(self, guard, role, merged, cont):
        """Guard residue, then the merged branches, then the continuation."""
        rest = concat_stm(merged, self.project_stm(cont, role))
        guard_p = normalize_exp(self.project_exp(guard, role))
        if not is_noop(guard_p):
            return LExpStm(guard_p, rest)
        return rest

    def merge_failure(self, stm, role, err):
        left = render_stm_inline(err.left)
        right = render_stm_inline(err.right)
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

    @staticmethod
    def _is_this(exp):
        return isinstance(exp, S.Name) and exp.ident == "this"

    def _signature_roles(self, mi):
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

    def project_exp(self, exp, role):
        if isinstance(exp, S.Literal):
            if role in exp.roles:
                return LLit(exp.value)
            return LUnit()
        if isinstance(exp, S.Name):
            if role in self.checked.type_roles(exp):
                return LName(exp.ident)
            return LUnit()
        if isinstance(exp, S.FieldAcc):
            if role not in self.checked.type_roles(exp):
                if isinstance(exp.scope, S.StaticRef):
                    return LUnit()
                return self.unit_residue([self.project_exp(exp.scope, role)])
            if isinstance(exp.scope, S.StaticRef):
                scope = LStaticName(self.static_name(exp.scope.name, exp.scope.roles, role))
            else:
                scope = self.project_exp(exp.scope, role)
            return LFieldAcc(scope, exp.name)
        if isinstance(exp, S.Call):
            ty_args = [erase_ctor(self.checker, self.checked.te_type(te))
                       for te in exp.type_args]
            args = [self.project_exp(a, role) for a in exp.args]
            if exp.scope is None or self._is_this(exp.scope):
                # Calls on the enclosing declaration: instance methods exist
                # in every role's unit, but a static member belongs only to
                # the roles its signature mentions, or to all of its
                # declaration's roles when the signature mentions none.
                res = self.checked.resolved.get(id(exp))
                mi = res[1] if res and res[0] == "call" else None
                if mi is not None and mi.is_static:
                    if role not in (self._signature_roles(mi) or mi.owner.role_names):
                        return self.unit_residue(args)
                if exp.scope is None:
                    return LCall(None, ty_args, exp.name, args)
                return LCall(LName("this"), ty_args, exp.name, args)
            if isinstance(exp.scope, S.StaticRef):
                if role in exp.scope.roles:
                    scope = LStaticName(self.static_name(exp.scope.name, exp.scope.roles, role))
                    return LCall(scope, ty_args, exp.name, args)
                return self.unit_residue(args)
            if role in self.checked.type_roles(exp.scope):
                return LCall(self.project_exp(exp.scope, role), ty_args, exp.name, args)
            # The receiver may carry effects for this role (e.g. a com whose
            # result a foreign role consumes); keep its residue with the args.
            return self.unit_residue([self.project_exp(exp.scope, role)] + args)
        if isinstance(exp, S.New):
            args = [self.project_exp(a, role) for a in exp.args]
            if role in exp.roles:
                info = self.table.get(exp.class_name)
                name = generated_name(exp.class_name, info.role_names,
                                      info.role_names[exp.roles.index(role)]) \
                    if info is not None else exp.class_name
                ty_args = [erase_ctor(self.checker, self.checked.te_type(te))
                           for te in exp.type_args]
                return LNew(name, ty_args, args)
            return self.unit_residue(args)
        if isinstance(exp, S.Binary):
            if role in self.checked.roles_of(exp):
                return LBinary(self.project_exp(exp.left, role), exp.op,
                               self.project_exp(exp.right, role))
            return LUnit()
        if isinstance(exp, S.StaticRef):
            return LStaticName(self.static_name(exp.name, exp.roles, role))
        raise TypeError(f"project_exp: {exp!r}")


def project_program(checked, reporter=None, annotate=False):
    reporter = reporter if reporter is not None else Reporter()
    projector = Projector(checked, reporter, annotate)
    return projector.project_program(), reporter
