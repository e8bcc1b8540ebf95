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

An expression statement, a declaration or an assignment is projected only at
its acting roles (``ACTING``), worked out once per statement and projection:
the roles where it leaves something. Every other role skips it without
calling its handler, so a role pays only for the statements it takes part
in. Nodes are built in unit-normal form (``merging.normalize_stm``): a
single effectful part of a unit residue stands for itself, and a statement
whose expression is a no-op is left out, so no pass re-normalises the
projection."""

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
from .merging import MergeError, big_merge, is_noop, merge_stm
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
    if role not in role_names:
        return LTE("Unit")
    return LTE(view_name(head.name, _formal_role_names(checker, head), role_names, role),
               [erase_ctor(checker, a) for a in args if not (isinstance(a, TVar) and a.role)])


def project_type_name(checker, t, role):
    return render_te(project_type(checker, t, role))


def view_name(name, formals, roles, role):
    """The view at ``role`` of ``name`` at ``roles``: ``name`` at one role,
    else suffixed with the formal role at the index of ``role``, or with
    that index + 1 past ``formals``."""
    if len(roles) <= 1:
        return name
    i = roles.index(role)
    return f"{name}_{formals[i] if i < len(formals) else i + 1}"


def generated_name(source_name, decl_roles, role):
    """Single-role declarations keep their name; others get a role suffix."""
    return view_name(source_name, decl_roles, decl_roles, role)


# ------------------------------------------------------------- projector

@record
class Projector:
    checked: object  # the Checker that checked the program
    reporter: Reporter
    annotate: bool = False

    def __post_init__(self):
        self.table = self.checked.table
        self.acting = {}  # id(Stm) -> the roles at which it can project to something
        self.selections = {}  # id(ExpStm) of a selection -> (receiving role, label)

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
                {slot: mi.slot for slot, (mi, _) in self.checked.tables.get(info.name, {}).items()},
            )
        return LocalUnit(gen, info.name, role, decl)

    def project_te(self, te, role):
        if role in self.checked.type_roles(te):
            return project_type(self.checked, self.checked.te_type(te), role)
        return LTE("void" if isinstance(self.checked.te_type(te), TVoid) else "Unit")

    def project_ftps(self, ftps):
        out = []
        for fi in ftps:
            if fi.arity <= 1:
                binder = fi.role_binders[0].name if fi.role_binders else None
                bounds = [project_type(self.checked, self.checked.te_type(b), binder)
                          for b in fi.bound_tes]
                out.append(LFTP(fi.name, bounds))
            else:
                for binder in fi.role_binders:
                    bounds = [project_type(self.checked, self.checked.te_type(b), binder.name)
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
        body = self.project_stm(node.body, role)
        return LMethod(annotations, list(node.modifiers), self.project_ftps(mi.ftps),
                       ret, name, params, body, node.is_constructor, mi.slot)

    # ---------------------------------------------------------- statements

    def project_stm(self, stm, role):
        """The projection at ``role`` of the chain from ``stm``: each
        statement's own projection (``STM``), linked back to front. A
        statement whose acting roles (``ACTING``) leave out ``role`` is
        skipped. A selection at ``role`` takes the rest of the chain as the
        body of its one case. After a merged conditional that returns or
        throws, the rest is still projected, for its diagnostics, and dropped
        as unreachable."""
        acting = self.acting
        opened = []  # per selection: the statements up to and including its switch
        out = []
        ended = False
        while stm is not None:
            acts = ACTING.get(type(stm))
            if acts is not None:
                roles = acting.get(id(stm))
                if roles is None:
                    roles = acting[id(stm)] = acts(self, stm)
                if role not in roles:
                    stm = stm.cont
                    continue
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
        guard = self.project_exp(stm.guard, role)
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

    def selection(self, exp):
        """(receiving role, label) when ``exp`` is a selection, else None.
        The label is None when the argument is not a literal enum case."""
        if not isinstance(exp, S.Call):
            return None
        res = self.checked.resolved.get(id(exp))
        if not res or res[0] != "call" or res[1].annotation("SelectionMethod") is None:
            return None
        roles = self.checked.type_roles(exp)
        if len(roles) != 1:
            return None
        label = None
        if len(exp.args) == 1:
            arg = exp.args[0]
            if isinstance(arg, S.FieldAcc) and isinstance(arg.scope, S.StaticRef):
                label = arg.name
        return next(iter(roles)), label

    def selection_label(self, stm, role):
        """Case label of the selection ``stm`` when ``role`` receives it, else None."""
        receiver, label = self.selections.get(id(stm), (None, None))
        if receiver != role:
            return None
        if label is None:
            self.reporter.error(
                Code.BadSelectionAnnotation, stm.exp.span,
                "selection labels must be literal enum-case accesses so receivers "
                "can branch on them.")
            raise ProjectionFailed()
        return label

    # ---------------------------------------------------------- expressions

    def project_exp(self, exp, role):
        return EXP[type(exp)](self, exp, role)

    def effect_roles(self, exp):
        """The roles at which the projection of ``exp`` is not a no-op
        (``is_noop``): a field access has those of its scope, a name or a
        class reference none, a literal its own unless it is null."""
        while type(exp) is S.FieldAcc:
            exp = exp.scope
        if type(exp) is S.Literal:
            return NO_ROLES if exp.value is None else frozenset(exp.roles)
        if type(exp) in (S.Name, S.StaticRef):
            return NO_ROLES
        return self.checked.roles_of(exp)

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
        """The name of the view at ``role`` of ``class_name`` instantiated at
        ``actual_roles``."""
        info = self.table.get(class_name)
        return view_name(class_name, info.role_names if info is not None else [],
                         actual_roles, role)

    def unit_residue(self, args):
        """Unit.id(...) over the effectful parts, in normal form: discardable
        parts drop, and a single effectful part stands for itself, as the
        payload nested coms carry."""
        effectful = [a for a in args if not is_noop(a)]
        if len(effectful) == 1:
            return effectful[0]
        return LUnitCall(effectful) if effectful else LUnit()


# The roles at which a statement can project to something, its acting roles:
# ``ACTING`` holds, per statement class whose projection can be nothing, a
# function ``f(projector, stm)`` that works them out, once per projection
# (``Projector.acting``). A statement of any other class acts at every role.

NO_ROLES = frozenset()


def _exp_stm_acting(p, stm):
    roles = p.effect_roles(stm.exp)
    selection = p.selection(stm.exp)
    if selection is None:
        return roles
    p.selections[id(stm)] = selection
    return roles | {selection[0]}


def _var_decl_acting(p, stm):
    roles = p.checked.type_roles(stm.te)
    return roles if stm.init is None else roles | p.effect_roles(stm.init)


def _assign_acting(p, stm):
    return (p.checked.type_roles(stm.target) | p.effect_roles(stm.target)
            | p.effect_roles(stm.value))


ACTING = {S.ExpStm: _exp_stm_acting, S.VarDecl: _var_decl_acting, S.Assign: _assign_acting}


# Each statement handler ``f(projector, stm, role)`` returns the projection of
# ``stm`` alone, with its ``cont`` unset and in unit-normal form
# (``merging.normalize_stm``), or None when ``stm`` projects to nothing at
# ``role``; a merged conditional gives a list (``merged``).

def _effect(exp):
    """An expression statement of ``exp``, or None when it is a no-op."""
    return None if is_noop(exp) else LExpStm(exp, None)


def _exp_stm(p, stm, role):
    label = p.selection_label(stm, role)
    if label is not None:  # the case's body is set by ``project_stm``
        return LSwitch(p.project_exp(stm.exp, role), [(label, None)],
                       LThrow(UNEXPECTED_LABEL), LNil())
    return _effect(p.project_exp(stm.exp, role))


def _var_decl(p, stm, role):
    if role in p.checked.type_roles(stm.te):
        init = p.project_exp(stm.init, role) if stm.init is not None else None
        return LVarDecl(p.project_te(stm.te, role), stm.name, init, None)
    return _effect(p.project_exp(stm.init, role))  # it acts here, so it has an init


def _assign(p, stm, role):
    if role in p.checked.type_roles(stm.target):
        return LAssign(p.project_exp(stm.target, role), stm.op,
                       p.project_exp(stm.value, role), None)
    return _effect(p.unit_residue([p.project_exp(stm.target, role),
                                   p.project_exp(stm.value, role)]))


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
    ty_args = [erase_ctor(p.checked, p.checked.te_type(te)) for te in exp.type_args]
    args = [p.project_exp(a, role) for a in exp.args]
    kind, mi = p.checked.resolved[id(exp)]
    scope = exp.scope
    if scope is None or type(scope) is S.Name and scope.ident == "this":
        # Calls on the enclosing declaration: instance methods exist in
        # every role's unit, but a static member belongs only to the roles
        # its signature mentions, or to all of its declaration's roles when
        # the signature mentions none.
        if kind == "call" and mi.is_static:
            if role not in (p.signature_roles(mi) or mi.owner.role_names):
                return p.unit_residue(args)
        return LCall(None if scope is None else LName("this"), ty_args, exp.name, args, mi.slot)
    if type(scope) is S.StaticRef:
        if role in scope.roles:
            return LCall(p.project_exp(scope, role), ty_args, exp.name, args, mi.slot)
        return p.unit_residue(args)
    if role in p.checked.type_roles(scope):
        return LCall(p.project_exp(scope, role), ty_args, exp.name, args, mi.slot)
    # The receiver may carry effects for this role (e.g. a com whose result
    # a foreign role consumes); keep its residue with the args.
    return p.unit_residue([p.project_exp(scope, role)] + args)


def _new(p, exp, role):
    args = [p.project_exp(a, role) for a in exp.args]
    if role not in exp.roles:
        return p.unit_residue(args)
    ty_args = [erase_ctor(p.checked, p.checked.te_type(te)) for te in exp.type_args]
    return LNew(p.static_name(exp.class_name, exp.roles, role), ty_args, args,
                p.checked.resolved[id(exp)][1].slot)


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
