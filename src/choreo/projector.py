"""Projection of checked choreographies into the local language, every role
of a declaration at once.

Type expressions project by the three-case rule (own role: same name; one of
several roles: name suffixed with the declaration's formal role name at that
position; absent: Unit). Expressions strip role information while the
projecting role occurs in their type or receiver, and collapse to unit
residue otherwise. Statements follow the same discipline, except
conditionals (merge of branch projections at non-guard roles) and selections
(a switch over the received label at the receiving role).

Each method body is walked once, along its ``cont`` chain, and the walk
builds every role's chain together, so it takes Python stack per level of
nesting, not per statement. An expression statement, a declaration or an
assignment is projected by its handler in ``STM`` only at its acting roles
(``ACTING``), worked out once per statement: the roles where it leaves
something. Every other role skips it without a call, so a role pays only for
the statements it takes part in. A statement with nested chains (``NESTED``)
walks each of them once for all the roles, then builds each role's node or
merges the branches of each role that does not take the decision. The type
of a declaration's field, parameter or result is projected only at the roles
of that type; every other role shares one ``Unit``. A role whose projection
fails drops out of the walk and loses its unit; the others go on.

Nodes are built in unit-normal form (``merging.normalize_stm``): a single
effectful part of a unit residue stands for itself, and a statement whose
expression is a no-op is left out, so the branches merge as they are built
(``merge_stm``), and no pass re-normalises the projection."""

from __future__ import annotations

from . import surface as S
from .diagnostics import Code, Reporter
from .local import (
    LAnnotation, LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm,
    LFTP, LField, LFieldAcc, LIf, LInterface, LLit, LMethod, LName, LNew,
    LNil, LParam, LReturn, LStaticName, LSwitch, LThrow, LTryCatch, LTE,
    LUnit, LUnitCall, LVarDecl, LocalProgram, LocalUnit, link, stm_list,
)
# The benchmark's tracer wraps ``merge_stm`` and ``big_merge`` in this module;
# the projector calls ``merge_stm`` (``Projector.merged``).
from .merging import MergeError, big_merge, is_noop, merge_stm  # noqa: F401
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

# What a type projects to at a role outside it; every such role shares one.
UNIT, VOID = LTE("Unit"), LTE("void")


@record
class Projector:
    checked: object  # the Checker that checked the program
    reporter: Reporter
    annotate: bool = False

    def __post_init__(self):
        self.table = self.checked.table
        self.selections = {}  # id(ExpStm) of a selection -> (receiving role, label)
        self.failed = {}  # role -> (code, span, message) of the error that stopped it

    # -------------------------------------------------------------- units

    def project_program(self):
        units = []
        for info in self.table.values():
            if not info.is_prelude:
                units += self.project_decl(info)
        return LocalProgram(units)

    def project_decl(self, info):
        """The units of ``info``, one per role in order, but for the roles
        whose projection fails. Each such role's error is reported once the
        declaration is projected, in role order."""
        roles, node = info.role_names, info.node
        self.failed = {}
        gens = {role: generated_name(info.name, roles, role) for role in roles}
        annotations = [LAnnotation(a.name, list(a.args)) for a in node.annotations]
        ftps = self.project_ftps(info.ftps)
        if isinstance(node, S.InterfaceDecl):
            extends = [self.views(te) for te in node.extends]
        elif not isinstance(node, S.EnumDecl):
            extends = self.views(node.extends) if node.extends is not None else None
            implements = [self.views(te) for te in node.implements]
            fields = self.project_fields(info, roles)
            constructors = [self.project_method(c, roles, gens) for c in info.constructors
                            if c.node.body is not None or c.node.params]
            table = {slot: mi.slot for slot, (mi, _) in self.checked.tables.get(info.name, {}).items()}
        if not isinstance(node, S.EnumDecl):
            methods = [self.project_method(m, roles, gens) for m in info.methods]
        units = []
        for role in roles:
            if role in self.failed:
                self.reporter.error(*self.failed[role])
                continue
            gen = gens[role]
            annotated = list(annotations)
            if self.annotate:
                annotated.append(LAnnotation("Choreography", [("name", info.name), ("role", role)]))
            if isinstance(node, S.EnumDecl):
                decl = LEnum(annotated, list(node.modifiers), gen, list(node.cases))
            elif isinstance(node, S.InterfaceDecl):
                decl = LInterface(annotated, list(node.modifiers), gen, list(ftps),
                                  [_at(te, role) for te in extends], [m[role] for m in methods])
            else:
                decl = LClass(annotated, list(node.modifiers), gen, list(ftps),
                              _at(extends, role) if extends is not None else None,
                              [_at(te, role) for te in implements], fields[role],
                              [c[role] for c in constructors], [m[role] for m in methods], table)
            units.append(LocalUnit(gen, info.name, role, decl))
        return units

    def views(self, te):
        """The projection of ``te`` at each role of its type, and the one
        type it projects to at every other role: ``Unit``, or ``void``
        (``_at`` reads them)."""
        t = self.checked.te_type(te)
        inside = {}
        for role in self.checked.type_roles(te):
            inside[role] = project_type(self.checked, t, role)
        return inside, VOID if isinstance(t, TVoid) else UNIT

    def project_te(self, te, role):
        return _at(self.views(te), role)

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

    def project_fields(self, info, roles):
        """{role: its fields}: each field is at the roles of its type."""
        out = {role: [] for role in roles}
        for f in info.fields():
            annotations = [LAnnotation(a.name, list(a.args)) for a in f.annotations]
            for role, te in self.views(f.te)[0].items():
                if role in out:
                    out[role].append(LField(list(annotations), list(f.modifiers), te, f.name))
        return out

    def project_method(self, mi, roles, gens):
        """{role: the projection of ``mi`` at it}, for each of ``roles``
        that has not failed and does not fail in its body. Each parameter
        type is projected at the roles of its type only (``views``)."""
        node = mi.node
        if self.failed:
            roles = [role for role in roles if role not in self.failed]
        bodies = self.project_stm(node.body, roles)
        annotations = [LAnnotation(a.name, list(a.args)) for a in node.annotations]
        ftps = self.project_ftps(mi.ftps)
        params = []
        for p in node.params:
            inside, rest = self.views(p.te)
            for role, te in inside.items():
                inside[role] = LParam(te, p.name)
            params.append((inside, LParam(rest, p.name)))
        ret, ret_rest = ({}, None) if node.is_constructor else self.views(node.return_te)
        for role, body in bodies.items():
            bodies[role] = LMethod(list(annotations), list(node.modifiers), list(ftps),
                                   ret.get(role, ret_rest),
                                   gens[role] if node.is_constructor else node.name,
                                   [inside.get(role, rest) for inside, rest in params],
                                   body, node.is_constructor, mi.slot)
        return bodies

    # ---------------------------------------------------------- statements

    def project_stm(self, stm, roles):
        """{role: the projection at it of the chain from ``stm``}, for each
        of ``roles`` that does not fail on it. One walk along ``cont`` builds
        every role's chain: a statement of a class in ``NESTED`` is projected
        once for all the roles, and any other statement by its handler in
        ``STM`` at each of its acting roles (``ACTING``), while every other
        role skips it without a call. A selection takes, at its receiving
        role, the rest of the chain as the body of its one case. After a
        merged conditional that returns or throws at a role, the rest is
        still projected there, for its diagnostics, and dropped as
        unreachable."""
        outs = {}  # role -> its chain's statements so far
        for role in roles:
            outs[role] = []
        opened = {}  # role -> per selection: the statements up to and including its switch
        ended = set()
        while stm is not None and outs:  # until no role is left to project
            handler = STM.get(type(stm))
            if handler is None:
                projected = NESTED[type(stm)](self, stm, outs)
                if len(projected) < len(outs):  # the roles that failed drop out
                    outs = {role: out for role, out in outs.items() if role in projected}
                for role, got in projected.items():
                    if role in ended:
                        continue
                    if type(got) is list:  # merged branches, spliced in (``merged``)
                        outs[role] += got
                        if got and type(got[-1]) in (LReturn, LThrow):
                            ended.add(role)
                    else:
                        outs[role].append(got)
            else:
                acts = ACTING.get(type(stm))
                for role in tuple(outs) if acts is None else acts(self, stm):
                    out = outs.get(role)
                    if out is None:
                        continue
                    try:
                        got = handler(self, stm, role)
                    except ProjectionFailed:
                        del outs[role]
                        continue
                    if got is None or role in ended:
                        continue
                    out.append(got)
                    if type(got) is LSwitch:  # a selection
                        opened.setdefault(role, []).append(out)
                        outs[role] = []
            stm = getattr(stm, "cont", None)
        for role, out in outs.items():
            head = link(out)
            for out in reversed(opened.get(role, ())):
                switch = out[-1]
                switch.cases = [(switch.cases[0][0], head)]
                head = link(out)
            outs[role] = head
        return outs

    def merged(self, stm, role, branches):
        """The statements a conditional or switch projects to at a role that
        does not take its decision: the guard's residue, then the merge of
        its branches' projections, which ``project_stm`` splices into the
        chain in place of the merge's closing ``LNil``. The branches are
        merged as they were built, in unit-normal form."""
        try:
            merged = branches[0] if branches else LNil()
            for branch in branches[1:]:
                merged = merge_stm(merged, branch)
        except MergeError as e:
            self.fail(role, Code.MergeFailure, stm.span,
                      f"cannot merge the branches of this conditional for role '{role}': "
                      f"'{render_inline(e.left)}' against '{render_inline(e.right)}'. The roles "
                      f"taking the decision must inform '{role}' via a selection.")
        guard = self.project_exp(stm.guard, role)
        out = [] if is_noop(guard) else [LExpStm(guard, None)]
        out += stm_list(merged)  # new nodes, which ``link`` may relink
        if out and type(out[-1]) not in (LReturn, LThrow):
            out[-1].cont = None
        return out

    def fail(self, role, code, span, message):
        """Stops the projection at ``role``; ``project_decl`` reports the error."""
        self.failed[role] = (code, span, message)
        raise ProjectionFailed()

    def switch_is_exhaustive(self, stm):
        head, _ = spine(self.checked.type_of(stm.guard))
        if isinstance(head, TSym):
            info = self.table.get(head.name)
            if info is not None and info.is_enum:
                labels = {c.label for c in stm.cases if isinstance(c.label, str)}
                return labels >= set(info.node.cases)
        return False

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
            self.fail(role, Code.BadSelectionAnnotation, stm.exp.span,
                      "selection labels must be literal enum-case accesses so receivers "
                      "can branch on them.")
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


def _at(views, role):
    """What ``role`` takes of ``views``: its own, else the one all others share."""
    inside, rest = views
    return inside.get(role, rest)


# The roles at which a statement can project to something, its acting roles:
# ``ACTING`` holds, per statement class whose projection can be nothing, a
# function ``f(projector, stm)`` that works them out, once per statement, as
# the one walk of its chain reaches it. A statement of any other class acts at
# every role.

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


# Each statement handler in ``STM``, ``f(projector, stm, role)``, returns the
# projection of ``stm`` alone at ``role``, with its ``cont`` unset and in
# unit-normal form (``merging.normalize_stm``), or None when ``stm`` projects
# to nothing there. A statement with nested chains has its handler in
# ``NESTED`` instead, ``f(projector, stm, roles)``: it walks each nested chain
# once for all of ``roles`` and returns {role: projection} for each role that
# does not fail, where a merged conditional gives a list (``merged``).

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


STM = {
    S.Nil: lambda p, stm, role: LNil(),
    S.Return: lambda p, stm, role: LReturn(
        p.project_exp(stm.value, role) if stm.value is not None else None),
    S.ExpStm: _exp_stm,
    S.VarDecl: _var_decl,
    S.Assign: _assign,
}


def _if(p, stm, roles):
    then = p.project_stm(stm.then, roles)
    orelse = p.project_stm(stm.orelse, then)  # at the roles that did not fail in then
    decides = p.checked.type_roles(stm.guard)
    decider = next(iter(decides)) if len(decides) == 1 else None
    out = {}
    for role, chain in orelse.items():
        if role == decider:
            out[role] = LIf(p.project_exp(stm.guard, role), then[role], chain, None)
            continue
        try:
            out[role] = p.merged(stm, role, [then[role], chain])
        except ProjectionFailed:
            pass
    return out


def _walk(p, chains, roles):
    """[{role: its projection} for each of ``chains``], each chain walked at
    the roles that did not fail in those before it."""
    out = []
    for chain in chains:
        roles = p.project_stm(chain, roles)
        out.append(roles)
    return out


def _switch(p, stm, roles):
    # A role that takes the decision walks the default first, any other
    # role walks it last, so each reports the failure it reached first.
    decides = p.checked.type_roles(stm.guard)
    bodies = [body for _, body in stm.cases]
    *cases, default = _walk(p, bodies + [stm.default], [r for r in roles if r not in decides])
    deciding = _walk(p, [stm.default] + bodies, [r for r in roles if r in decides])
    out = {role: LSwitch(p.project_exp(stm.guard, role),
                         [(label, case[role]) for (label, _), case in zip(stm.cases, deciding[1:])],
                         deciding[0][role], None)
           for role in deciding[-1]}
    for role, chain in default.items():
        branches = [case[role] for case in cases]
        if stm.default is not None:
            branches.append(chain)
        elif not p.switch_is_exhaustive(stm):
            # Without a default, the no-match path runs nothing at the guard
            # role; other roles must reconcile with that too.
            branches.append(LNil())
        try:
            out[role] = p.merged(stm, role, branches)
        except ProjectionFailed:
            pass
    return out


def _try_catch(p, stm, roles):
    handlers = []  # (te, name, {role: body}), walked at the roles of te
    for te, name, body in stm.handlers:
        at = p.checked.type_roles(te)
        bodies = p.project_stm(body, [role for role in roles if role in at])
        roles = [role for role in roles if role not in at or role in bodies]
        handlers.append((te, name, bodies))
    return {role: LTryCatch(body, [(p.project_te(te, role), name, bodies[role])
                                   for te, name, bodies in handlers if role in bodies], None)
            for role, body in p.project_stm(stm.body, roles).items()}


NESTED = {
    S.If: _if,
    S.Block: lambda p, stm, roles: {
        role: LBlock(body, None) for role, body in p.project_stm(stm.body, roles).items()},
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
    # ``this`` has its declaration's type, at every role the body is
    # projected at, so its type's roles, as many as the declaration's, are
    # not worked out per node.
    S.Name: lambda p, exp, role: (
        LName(exp.ident) if exp.ident == "this" or role in p.checked.type_roles(exp)
        else LUnit()),
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
