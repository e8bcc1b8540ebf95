"""Kinding, type denotation, subtyping, and bidirectional checking.

The pipeline: build the symbol table, run the role-constraint diagnostics
(aliasing, cyclic inheritance, role-set preservation, per-role overload
clashes), validate selection annotations, kind-check declared type
expressions, then check member bodies bidirectionally. The result is a
CheckedProgram whose side tables answer ``type_of`` and ``roles_of`` for the
projector and interpreters.

The prelude's declarations are checked once per process into a read-only
``PreludeLayer``; each program's checker starts from copies of its tables
and checks only the program's own declarations.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from . import surface as S
from .diagnostics import Code, Reporter
from .printer import render_te
from .types import (
    VOID, CtorKind, RoleKind, StarKind, TAbs, TApp, TBottom, TInter, TSym,
    TVar, TVoid, app, fresh_var, kind_shape_eq, pretty, reduce_type,
    roles_of_type, spine, substitute, type_equal,
)

ARITH_OPS = {"+", "-", "*", "/", "%"}
COMPARE_OPS = {"<", ">", "<=", ">="}
EQ_OPS = {"==", "!="}
BOOL_OPS = {"&&", "||", "&", "|"}
NUMERIC = {"Integer", "Long", "Double"}


# ------------------------------------------------------------ symbol table

@dataclass
class FTPInfo:
    name: str
    var: TVar
    role_binders: list
    bound_tes: list
    node: S.FTP = None
    bound_ctors: list = field(default_factory=list)  # TAbs over role binders

    @property
    def arity(self):
        return len(self.role_binders)


@dataclass
class MethodInfo:
    node: S.Method
    owner: "DeclInfo"  # a weak proxy: the DeclInfo holds its MethodInfos
    ftps: list = field(default_factory=list)

    @property
    def name(self):
        return self.node.name

    @property
    def is_static(self):
        return "static" in self.node.modifiers

    def annotation(self, name):
        for a in self.node.annotations:
            if a.name == name:
                return a
        return None


@dataclass
class DeclInfo:
    node: S.Decl
    sym: TSym
    role_vars: list
    ftps: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    constructors: list = field(default_factory=list)
    is_prelude: bool = False

    @property
    def name(self):
        return self.node.name

    @property
    def is_enum(self):
        return isinstance(self.node, S.EnumDecl)

    @property
    def is_interface(self):
        return isinstance(self.node, S.InterfaceDecl)

    @property
    def role_names(self):
        return [v.name for v in self.role_vars]

    def super_tes(self):
        if isinstance(self.node, S.InterfaceDecl):
            return list(self.node.extends)
        if isinstance(self.node, S.ClassDecl):
            out = []
            if self.node.extends is not None:
                out.append(self.node.extends)
            out.extend(self.node.implements)
            return out
        return []

    def fields(self):
        return self.node.fields if isinstance(self.node, S.ClassDecl) else []


@dataclass
class Scope:
    """Name environments for denotation: role vars and type vars in scope."""

    roles: dict
    types: dict

    def child(self, roles=None, types=None):
        r = dict(self.roles)
        t = dict(self.types)
        r.update(roles or {})
        t.update(types or {})
        return Scope(r, t)


class CheckedProgram:
    """A checked AST plus the annotation side tables.

    Role sets are filled on first use and kept per node: the projector asks
    for them once per role at every node. Equal sets are stored once.
    """

    def __init__(self, program, table, checker):
        self.program = program
        self.table = table
        self._checker = checker
        self.exp_types = checker.exp_types
        self.te_types = checker.te_types
        self.resolved = checker.resolved
        self.var_tes = checker.var_tes
        self._type_roles = {}  # id(Exp or TE) -> roles of its own type
        self._exp_roles = {}  # id(Exp) -> roles of its type and all subterms
        self._role_sets = {}  # frozenset -> the one stored copy of it
        # What the oracle works out once (``interpreter.OracleFacts``).
        self.facts = None

    def decl_info(self, name):
        return self.table.get(name)

    def type_of(self, exp):
        """Synthesised/checked type recorded for an expression node."""
        t = self.exp_types.get(id(exp))
        if t is None:
            raise KeyError(f"expression at {exp.span!r} carries no type annotation")
        return t

    def te_type(self, te):
        t = self.te_types.get(id(te))
        if t is None:
            raise KeyError(f"type expression at {te.span!r} was not denoted")
        return t

    def type_roles(self, node):
        """Roles in the type of an expression or a type expression."""
        roles = self._type_roles.get(id(node))
        if roles is None:
            t = self.te_type(node) if isinstance(node, S.TE) else self.type_of(node)
            roles = self._type_roles[id(node)] = self._stored(roles_of_type(t))
        return roles

    def roles_of(self, node):
        """Roles in the node's resolved type and, for expressions, all subterms."""
        if isinstance(node, S.TE):
            return self.type_roles(node)
        if isinstance(node, S.Exp):
            roles = self._exp_roles.get(id(node))
            if roles is None:
                roles = self._exp_roles[id(node)] = self._exp_roles_of(node)
            return roles
        raise TypeError(f"roles_of: {node!r}")

    def _exp_roles_of(self, exp):
        out = set()
        if isinstance(exp, S.StaticRef):
            return self._stored(exp.roles)
        if isinstance(exp, S.Call) and exp.scope is None:
            # Unqualified calls (and super) have an implicit receiver, or
            # for a static method an implicit class, spanning the roles of
            # the declaration of the method, as ``H@A.hello()`` does.
            res = self.resolved.get(id(exp))
            if res is not None and res[0] in ("call", "super"):
                out.update(res[1].owner.role_names)
        if id(exp) in self.exp_types:
            out |= self.type_roles(exp)
        for sub in S.sub_exps(exp):
            out |= self.roles_of(sub)
        return self._stored(out)

    def _stored(self, roles):
        roles = frozenset(roles)
        return self._role_sets.setdefault(roles, roles)


# ------------------------------------------------------------------ checker

class Checker:
    """Checks ``decls``, a program's own declarations, on top of
    ``prelude``, the ``PreludeLayer`` of the declarations before them. Each
    table starts as a plain copy of the layer's, so a lookup reads one dict."""

    def __init__(self, program: S.SurfaceProgram, reporter: Reporter, prelude, decls):
        self.program = program
        self.reporter = reporter
        self.prelude = prelude
        self.decls = decls
        self.own = []  # DeclInfos of ``decls`` that entered the table
        self.table = prelude.table.copy()
        self.var_bounds = prelude.var_bounds.copy()  # TVar uid -> [bound ctor Type]
        self.var_ftp = prelude.var_ftp.copy()  # TVar uid -> FTPInfo
        self.exp_types = {}
        self.te_types = prelude.te_types.copy()
        self.resolved = {}  # id(Call/New) -> (kind, MethodInfo)
        self.var_tes = {}  # id(VarDecl) -> denoted Type
        self.suppressed = set()  # decl names whose bodies are skipped
        self.cyclic = set()  # decl names reported for cyclic inheritance
        self._failed_tes = set()
        # Type facts, each computed on first use and kept for this program.
        self._decl_scopes = prelude.decl_scopes.copy()  # decl name -> Scope
        self._method_scopes = prelude.method_scopes.copy()  # id(MethodInfo) -> Scope
        # decl name -> direct supertypes at its formals
        self._decl_supers = prelude.decl_supers.copy()
        self._closures = prelude.closures.copy()  # decl name -> [(DeclInfo, subst)]
        # id(MethodInfo) -> (param Type or None, ...)
        self._param_types = prelude.param_types.copy()
        self._return_types = prelude.return_types.copy()  # id(MethodInfo) -> Type or None

    # ------------------------------------------------------------ pipeline

    def run(self):
        self.build_table()
        self.check_role_constraints()
        self.validate_selection_annotations()
        self.kind_check_declarations()
        for info in self.own:
            if info.name not in self.suppressed:
                try:
                    self.check_decl(info)
                except RecursionError:  # the checker recurses per expression level
                    self.reporter.error(Code.InternalError, info.node.span,
                                        f"'{info.name}' is nested too deeply to check.")
        return CheckedProgram(self.program, self.table, self)

    # -------------------------------------------------------- symbol table

    def build_table(self, is_prelude=False):
        for decl in self.decls:
            if decl.name in self.table:
                self.reporter.error(
                    Code.DuplicateName, decl.span,
                    f"duplicate declaration of '{decl.name}'.")
                continue
            info = DeclInfo(
                node=decl,
                sym=TSym(decl.name),
                role_vars=[fresh_var(r, role=True) for r in decl.roles],
                is_prelude=is_prelude,
            )
            self.table[decl.name] = info
            self.own.append(info)
        for info in self.own:
            scope = Scope({v.name: v for v in info.role_vars}, {})
            if isinstance(info.node, (S.ClassDecl, S.InterfaceDecl)):
                info.ftps = self.build_ftps(info.node.ftps, scope)
                scope = self.decl_scope(info)
                owner = weakref.proxy(info)
                info.methods.extend(MethodInfo(m, owner) for m in info.node.methods)
                if isinstance(info.node, S.ClassDecl):
                    for c in info.node.constructors:
                        info.constructors.append(MethodInfo(c, owner))
                    if not info.constructors:
                        default = S.Method(info.node.span, [], ["public"], [], None,
                                           info.name, [], None, is_constructor=True)
                        info.constructors.append(MethodInfo(default, owner))
            # Method-level type parameters.
            for mi in info.methods + info.constructors:
                mi.ftps = self.build_ftps(mi.node.ftps, scope)

    def build_ftps(self, nodes, scope):
        out = []
        for f in nodes:
            binders = [fresh_var(r, role=True) for r in f.roles]
            var = fresh_var(f.name)
            fi = FTPInfo(f.name, var, binders, list(f.bounds), node=f)
            self.var_ftp[var.uid] = fi
            out.append(fi)
        # Bounds may mention sibling parameters (F-bounds), so denote after
        # all binders exist.
        for fi in out:
            inner = scope.child(
                roles={v.name: v for v in fi.role_binders},
                types={g.name: g.var for g in out},
            )
            for bte in fi.bound_tes:
                bound = self.denote(bte, inner)
                if bound is None:
                    continue
                ctor = bound
                for v in reversed(fi.role_binders):
                    ctor = TAbs(v, RoleKind(), ctor)
                fi.bound_ctors.append(reduce_type(ctor))
            self.var_bounds[fi.var.uid] = list(fi.bound_ctors)
        return out

    def decl_scope(self, info):
        """Role and type variables of a declaration; valid once the table is built."""
        scope = self._decl_scopes.get(info.name)
        if scope is None:
            scope = self._decl_scopes[info.name] = Scope(
                roles={v.name: v for v in info.role_vars},
                types={f.name: f.var for f in info.ftps},
            )
        return scope

    def method_scope(self, info, mi):
        scope = self._method_scopes.get(id(mi))
        if scope is None:
            scope = self._method_scopes[id(mi)] = self.decl_scope(info).child(
                types={f.name: f.var for f in mi.ftps})
        return scope

    @staticmethod
    def formals(info):
        """A declaration's role variables, then its type variables."""
        return info.role_vars + [f.var for f in info.ftps]

    # --------------------------------------------------------- denotation

    def denote(self, te: S.TE, scope: Scope, as_argument_arity=None):
        """Implements the type denotation equations; records the normal form.

        Results (and failures) are cached per node so repeated closure walks
        neither redo work nor duplicate diagnostics.
        """
        t = self.te_types.get(id(te))
        if t is not None:
            return t
        if id(te) in self._failed_tes:
            return None
        t = self._denote(te, scope, as_argument_arity)
        if t is not None:
            t = self.te_types[id(te)] = reduce_type(t)
        else:
            self._failed_tes.add(id(te))
        return t

    def _denote(self, te, scope, as_argument_arity):
        if te.is_void:
            return VOID
        head = None
        target_roles = None  # formal role arity source
        target_ftps = None
        if te.name in scope.types:
            head = scope.types[te.name]
            fi = self.var_ftp[head.uid]
            target_roles = fi.role_binders
            target_ftps = []
        elif te.name in self.table:
            info = self.table[te.name]
            head = info.sym
            target_roles = info.role_vars
            target_ftps = info.ftps
        elif te.name in scope.roles:
            self.reporter.error(Code.UnknownName, te.span,
                                f"'{te.name}' is a role, not a type.")
            return None
        else:
            self.reporter.error(Code.UnknownName, te.span, f"unknown type '{te.name}'.")
            return None

        role_args = []
        if te.roles:
            if len(te.roles) != len(target_roles):
                self.reporter.error(
                    Code.KindMismatch, te.span,
                    f"'{te.name}' takes {len(target_roles)} role parameter(s), "
                    f"{len(te.roles)} given.")
                return None
            seen = set()
            for r in te.roles:
                if r in seen:
                    self.reporter.error(
                        Code.RoleAliasing, te.span,
                        f"Illegal type instantiation: role '{r}' must play exactly "
                        f"one role in '{te.name}'.")
                    return None
                seen.add(r)
                rv = scope.roles.get(r)
                if rv is None:
                    self.reporter.error(Code.UnknownName, te.span, f"unknown role '{r}'.")
                    return None
                role_args.append(rv)

        type_args = []
        if te.args:
            if target_ftps is not None and len(target_ftps) != len(te.args) and not (
                te.name in scope.types
            ):
                self.reporter.error(
                    Code.KindMismatch, te.span,
                    f"'{te.name}' takes {len(target_ftps)} type argument(s), "
                    f"{len(te.args)} given.")
                return None
            for i, arg in enumerate(te.args):
                want = target_ftps[i].arity if target_ftps else 1
                at = self.denote(arg, scope, as_argument_arity=want)
                if at is None:
                    return None
                type_args.append(at)

        if not te.roles and not te.args:
            t = head
        elif not te.roles and te.args:
            # Partially applied constructor, e.g. List<Integer> in a call's
            # type-argument list: abstract over the missing role arguments.
            fresh = [fresh_var(v.name, role=True) for v in target_roles]
            t = app(head, *fresh, *type_args)
            for v in reversed(fresh):
                t = TAbs(v, RoleKind(), t)
        else:
            t = app(head, *role_args, *type_args)

        if as_argument_arity is not None:
            t = self.coerce_argument(t, as_argument_arity, te)
        return t

    def coerce_argument(self, t, want_arity, te):
        """Fit a type argument to a role-parameterised formal (eta-abstraction)."""
        have = self.ctor_arity(t)
        if have == want_arity:
            return t
        if have == 0 and want_arity > 0:
            # Fully applied type: abstract its role arguments back out.
            head, args = spine(t)
            role_args = [a for a in args if isinstance(a, TVar) and a.role]
            rest = [a for a in args if not (isinstance(a, TVar) and a.role)]
            if len(role_args) != want_arity:
                self.reporter.error(
                    Code.KindMismatch, te.span,
                    f"type argument '{pretty(t)}' has {len(role_args)} role(s), "
                    f"expected {want_arity}.")
                return t
            fresh = [fresh_var(v.name, role=True) for v in role_args]
            mapping = {v.uid: f for v, f in zip(role_args, fresh)}
            body = substitute(app(head, *role_args, *rest), mapping)
            for v in reversed(fresh):
                body = TAbs(v, RoleKind(), body)
            return reduce_type(body)
        self.reporter.error(
            Code.KindMismatch, te.span,
            f"type argument '{pretty(t)}' does not fit a {want_arity}-role parameter.")
        return t

    def ctor_arity(self, t):
        """Number of role parameters a constructor-level type still expects."""
        t = reduce_type(t)
        if isinstance(t, TAbs):
            n = 0
            while isinstance(t, TAbs):
                n += 1
                t = t.body
            return n
        if isinstance(t, TSym):
            info = self.table.get(t.name)
            return len(info.role_vars) if info else 0
        if isinstance(t, TVar):
            fi = self.var_ftp.get(t.uid)
            return fi.arity if fi else 0
        return 0

    # -------------------------------------------------------------- kinds

    def kind_env(self):
        theta = self.prelude.kinds.copy()
        for info in self.own:
            theta[info.sym.name] = self.symbol_kind(info)
        for uid, fi in self.var_ftp.items():
            if uid not in theta:
                theta[uid] = self.ftp_kind(fi)
        return theta

    def symbol_kind(self, info):
        bound = self.declared_bound(info)
        kind = StarKind(bound)
        for fi in reversed(info.ftps):
            kind = CtorKind(fi.name, self.ftp_kind(fi), kind)
        for rv in reversed(info.role_vars):
            kind = CtorKind(rv.name, RoleKind(), kind)
        return kind

    def ftp_kind(self, fi):
        inner = StarKind(fi.bound_ctors[0] if fi.bound_ctors else None)
        kind = inner
        for rv in reversed(fi.role_binders):
            kind = CtorKind(rv.name, RoleKind(), kind)
        return kind

    def declared_bound(self, info):
        supers = self.direct_supertypes_of_decl(info)
        if not supers:
            return None
        if len(supers) == 1:
            return supers[0]
        return TInter(tuple(supers))

    def kind_of(self, theta, t):
        """The kinding judgement (rules Abs and App); raises on mismatch."""
        t = t if isinstance(t, (TAbs, TApp)) else reduce_type(t)
        if isinstance(t, TVar):
            if t.role:
                return RoleKind()
            k = theta.get(t.uid)
            if k is None:
                raise KindError(f"unbound type variable '{t.name}'")
            return k
        if isinstance(t, TSym):
            k = theta.get(t.name)
            if k is None:
                raise KindError(f"unknown symbol '{t.name}'")
            return k
        if isinstance(t, TVoid):
            return StarKind(None)
        if isinstance(t, TBottom):
            return StarKind(None)
        if isinstance(t, TAbs):
            inner = dict(theta)
            inner[t.var.uid] = t.kind
            return CtorKind(t.var.name, t.kind, self.kind_of(inner, t.body))
        if isinstance(t, TApp):
            ck = self.kind_of(theta, t.ctor)
            if not isinstance(ck, CtorKind):
                raise KindError(f"'{pretty(t.ctor)}' is not a type constructor")
            ak = self.kind_of(theta, t.arg)
            if not kind_shape_eq(ak, ck.param):
                raise KindError(
                    f"kind mismatch applying '{pretty(t.ctor)}': argument kind "
                    f"{ak} does not fit parameter kind {ck.param}")
            return self.subst_kind(ck.result, ck.var, t.arg)
        if isinstance(t, TInter):
            for i in t.items:
                self.kind_of(theta, i)
            return StarKind(None)
        raise KindError(f"cannot kind {t!r}")

    def subst_kind(self, kind, var_name, arg):
        if isinstance(kind, StarKind):
            if kind.bound is None:
                return kind
            mapping = {}
            for v in collect_vars(kind.bound, []):
                if v.name == var_name:
                    mapping[v.uid] = arg
            return StarKind(reduce_type(substitute(kind.bound, mapping)))
        if isinstance(kind, CtorKind):
            return CtorKind(kind.var, self.subst_kind(kind.param, var_name, arg),
                            self.subst_kind(kind.result, var_name, arg))
        return kind

    # ----------------------------------------------------------- subtyping

    def direct_supertypes_of_decl(self, info):
        """Denoted supertypes of a declaration, at its own formals."""
        out = self._decl_supers.get(info.name)
        if out is not None:
            return out
        scope = self.decl_scope(info)
        out = []
        for te in info.super_tes():
            t = self.denote(te, scope)
            if t is not None:
                out.append(t)
        if info.is_enum:
            out.append(app(TSym("Enum"), info.role_vars[0], info.sym))
        if (
            not out
            and len(info.role_vars) == 1
            and info.name != "Object"
            and "Object" in self.table
        ):
            out.append(app(TSym("Object"), info.role_vars[0]))
        out = self._decl_supers[info.name] = tuple(out)
        return out

    def direct_supertypes(self, t):
        t = reduce_type(t)
        head, args = spine(t)
        if isinstance(head, TSym):
            info = self.table.get(head.name)
            if info is None:
                return []
            formals = self.formals(info)
            if len(args) != len(formals):
                return []
            mapping = {f.uid: a for f, a in zip(formals, args)}
            return [reduce_type(substitute(s, mapping))
                    for s in self.direct_supertypes_of_decl(info)]
        if isinstance(head, TVar):
            bounds = self.var_bounds.get(head.uid, [])
            return [reduce_type(app(b, *args)) for b in bounds]
        return []

    def supertype_closure(self, info):
        """The declaration, then every supertype it reaches, breadth first.

        A list of ``(DeclInfo, subst)`` where ``subst`` maps the supertype's
        formals to types over ``info``'s formals (empty for ``info`` itself).
        Entries are told apart by instantiated type, not by declaration:
        ``BiChannel@(A, B)<T, R>`` reaches ``DiChannel`` both as
        ``DiChannel@(A, B)<T>`` and as ``DiChannel@(B, A)<R>``. A declaration
        reported as cyclic is listed but not expanded, so the walk ends even
        when a cycle grows its type arguments.
        """
        out = self._closures.get(info.name)
        if out is not None:
            return out
        out = [(info, {})]
        seen = {pretty(self.self_type(info))}
        for i, (cur, mapping) in enumerate(out):
            if i and cur.name in self.cyclic:
                continue
            for t in self.direct_supertypes_of_decl(cur):
                if mapping:
                    t = reduce_type(substitute(t, mapping))
                head, args = spine(t)
                sup = self.table.get(head.name) if isinstance(head, TSym) else None
                if sup is None:
                    continue
                formals = self.formals(sup)
                key = pretty(t)
                if len(formals) != len(args) or key in seen:
                    continue
                seen.add(key)
                out.append((sup, {f.uid: a for f, a in zip(formals, args)}))
        self._closures[info.name] = out
        return out

    def supertype_instances(self, t, _bounded=frozenset()):
        """The ``supertype_closure`` entries of a normal type's declaration,
        as ``(DeclInfo, subst, actuals)``.

        ``actuals`` maps the declaration's formals to the type's arguments;
        ``instantiate(subst, actuals)`` maps an entry's formals to types at
        this use. A type variable yields the entries of its bounds.
        """
        head, args = spine(t)
        if isinstance(head, TVar):
            if head.uid in _bounded:
                return
            for b in self.var_bounds.get(head.uid, ()):
                yield from self.supertype_instances(reduce_type(app(b, *args)),
                                                    _bounded | {head.uid})
            return
        info = self.table.get(head.name) if isinstance(head, TSym) else None
        if info is None:
            return
        formals = self.formals(info)
        if len(formals) != len(args):
            return
        actuals = {f.uid: a for f, a in zip(formals, args)}
        for sup, subst in self.supertype_closure(info):
            yield sup, subst, actuals

    @staticmethod
    def instantiate(subst, actuals):
        """Compose a closure entry's substitution with a use site's actuals."""
        if not subst:
            return actuals
        return {k: reduce_type(substitute(v, actuals)) for k, v in subst.items()}

    def is_subtype(self, a, b, _bounded=frozenset()):
        """Subtyping on normal types."""
        if type_equal(a, b):
            return True
        if isinstance(b, TInter):
            return all(self.is_subtype(a, i) for i in b.items)
        if isinstance(a, TInter):
            return any(self.is_subtype(i, b) for i in a.items)
        if isinstance(a, TBottom):
            return not isinstance(b, (TVoid, TBottom)) and roles_of_type(b) == set(a.roles)
        if isinstance(a, TVoid) or isinstance(b, TVoid):
            return False
        head, args = spine(a)
        if isinstance(head, TVar):
            # A bound may itself be a type variable (``S@Y extends T@Y``).
            if head.uid in _bounded:
                return False
            inner = _bounded | {head.uid}
            return any(self.is_subtype(reduce_type(app(bound, *args)), b, inner)
                       for bound in self.var_bounds.get(head.uid, ()))
        bhead, bargs = spine(b)
        if not isinstance(bhead, TSym):
            return False
        for sup, subst, actuals in self.supertype_instances(a):
            if sup.name != bhead.name:
                continue
            formals = self.formals(sup)
            if len(formals) != len(bargs):
                continue
            mapping = self.instantiate(subst, actuals)
            if all(type_equal(mapping[f.uid], x) for f, x in zip(formals, bargs)):
                return True
        return False

    # ------------------------------------------------------ role constraints

    def check_role_constraints(self):
        self.check_cycles()
        for info in self.own:
            decl_roles = set(info.role_names)
            scope = self.decl_scope(info)
            for te in info.super_tes():
                t = self.denote(te, scope)
                if t is None:
                    self.suppressed.add(info.name)
                    continue
                super_roles = roles_of_type(t)
                if super_roles != decl_roles:
                    self.reporter.error(
                        Code.RoleSetMismatch, te.span,
                        f"supertype '{pretty(t)}' must involve exactly the roles "
                        f"of '{info.name}' ({', '.join(sorted(decl_roles))}).")
                    self.suppressed.add(info.name)
            self.check_unused_roles(info)
        for info in self.own:
            if info.name not in self.suppressed:
                self.check_overload_clashes(info)

    def check_cycles(self):
        # A cycle has no prelude declaration on it: the prelude's supertypes
        # are all in the prelude, which is checked to have no cycle.
        edges = {}
        for info in self.own:
            targets = []
            for te in info.super_tes():
                if te.name in self.table:
                    targets.append(te.name)
            edges[info.name] = targets
        state = {}
        for name in edges:
            if state.get(name) is None:
                self._visit_supertypes(name, edges, state)

    def _visit_supertypes(self, name, edges, state):
        """Depth-first step of ``check_cycles``: report each edge that closes a cycle."""
        state[name] = "active"
        for nxt in edges.get(name, ()):
            if state.get(nxt) == "active":
                info = self.table[name]
                span = info.node.span
                for te in info.super_tes():
                    if te.name == nxt:
                        span = te.span
                self.reporter.error(
                    Code.CyclicInheritance, span,
                    f"Cyclic inheritance: '{name}' cannot extend '{nxt}'.")
                self.suppressed.add(name)
                self.cyclic.add(name)
            elif state.get(nxt) is None:
                self._visit_supertypes(nxt, edges, state)
        state[name] = "done"

    def check_unused_roles(self, info):
        # Every role written in the declaration except the binders it
        # declares (its own and those of its type parameters).
        used = set()
        for node in S.walk(info.node):
            if isinstance(node, (S.TE, S.Literal, S.StaticRef, S.New)):
                used.update(node.roles)
        for role in info.role_names:
            if role not in used and len(info.role_names) > 1:
                self.reporter.warn(
                    Code.UnusedRole, info.node.span,
                    f"role '{role}' of '{info.name}' is not used by any member "
                    f"or supertype.")

    def check_overload_clashes(self, info):
        """Per-role projected signatures must stay pairwise distinct."""
        candidates = []  # (MethodInfo, [param Type], own: bool)
        for i, (sup, subst) in enumerate(self.supertype_closure(info)):
            for mi in sup.methods:
                params = self.param_types(mi)
                if any(p is None for p in params):
                    continue
                if subst:
                    params = [reduce_type(substitute(p, subst)) for p in params]
                candidates.append((mi, params, i == 0))
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                m1, p1, own1 = candidates[i]
                m2, p2, own2 = candidates[j]
                if m1.name != m2.name or len(p1) != len(p2):
                    continue
                if not (own1 or own2):
                    continue
                if all(type_equal(a, b) for a, b in zip(p1, p2)):
                    continue  # override
                for role in info.role_names:
                    e1 = [self.erased_name(t, role) for t in p1]
                    e2 = [self.erased_name(t, role) for t in p2]
                    if e1 == e2:
                        at = m2 if own2 else m1
                        self.reporter.error(
                            Code.IllegalOverload, at.node.span,
                            f"Illegal overload: '{self.sig_text(m2)}' and "
                            f"'{self.sig_text(m1)}' have the same signature for "
                            f"role '{role}'.")
                        break

    def sig_text(self, mi):
        params = ", ".join(
            f"{render_te(p.te)} {p.name}" for p in mi.node.params
        )
        return f"{mi.name}({params})"

    def erased_name(self, t, role):
        """Projected type name at a role: the projector's signature erasure."""
        from .projector import project_type_name
        return project_type_name(self, t, role)

    # ------------------------------------------------- selection annotations

    def validate_selection_annotations(self):
        for info in self.own:
            for mi in info.methods:
                if mi.annotation("SelectionMethod") is None:
                    continue
                self.validate_selection_method(info, mi)

    def validate_selection_method(self, info, mi):
        span = mi.node.span

        def bad(msg):
            self.reporter.error(Code.BadSelectionAnnotation, span,
                                f"@SelectionMethod {msg}")

        if len(mi.node.params) != 1:
            bad("methods must take exactly one parameter.")
            return
        scope = self.method_scope(info, mi)
        pt = self.denote(mi.node.params[0].te, scope)
        rt = self.denote(mi.node.return_te, scope) if mi.node.return_te else None
        if pt is None or rt is None or isinstance(rt, TVoid):
            bad("methods must return the transmitted enumerated value.")
            return
        ph, pargs = spine(pt)
        rh, rargs = spine(rt)
        if not type_equal(ph, rh):
            bad("methods must return the same enumerated type they take.")
            return
        proles = [a for a in pargs if isinstance(a, TVar) and a.role]
        rroles = [a for a in rargs if isinstance(a, TVar) and a.role]
        if len(proles) != 1 or len(rroles) != 1:
            bad("methods must move a value located at a single role.")
            return
        if proles[0].uid == rroles[0].uid:
            bad("methods must move the value to a different role.")
            return
        if not self.is_enum_ctor(ph):
            bad("methods may only transmit instances of enumerated types.")
            return

    def is_enum_ctor(self, head):
        if isinstance(head, TSym):
            info = self.table.get(head.name)
            return info is not None and (info.is_enum or info.name == "Enum")
        if isinstance(head, TVar):
            for bound in self.var_bounds.get(head.uid, []):
                body = bound
                while isinstance(body, TAbs):
                    body = body.body
                h, _ = spine(body)
                if self.is_enum_ctor(h):
                    return True
        return False

    # ------------------------------------------------ declaration checking

    def member_tes_with_scope(self, info):
        """Every declared TE of a declaration paired with its denotation scope."""
        scope = self.decl_scope(info)
        for te in info.super_tes():
            yield te, scope
        for f in info.fields():
            yield f.te, scope
        for fi in info.ftps:
            inner = scope.child(roles={v.name: v for v in fi.role_binders})
            for bte in fi.bound_tes:
                yield bte, inner
        for mi in info.methods + info.constructors:
            mscope = self.method_scope(info, mi)
            if mi.node.return_te is not None:
                yield mi.node.return_te, mscope
            for p in mi.node.params:
                yield p.te, mscope
            for fi in mi.ftps:
                inner = mscope.child(roles={v.name: v for v in fi.role_binders})
                for bte in fi.bound_tes:
                    yield bte, inner

    def kind_check_declarations(self):
        theta = self.kind_env()
        well_kinded = set()  # many member types are the same type, e.g. String@A
        for info in self.own:
            if info.name in self.suppressed:
                continue
            for te, scope in self.member_tes_with_scope(info):
                t = self.denote(te, scope)
                if t is None or t in well_kinded:
                    continue
                try:
                    self.kind_of(theta, t)
                    well_kinded.add(t)
                except KindError as e:
                    self.reporter.error(Code.KindMismatch, te.span, str(e) + ".")

    def self_type(self, info):
        return app(info.sym, *info.role_vars, *[f.var for f in info.ftps])

    def check_decl(self, info):
        if info.is_enum:
            return
        for mi in info.methods:
            if mi.node.body is None:
                if not info.is_interface and "abstract" not in mi.node.modifiers \
                        and "abstract" not in info.node.modifiers:
                    self.reporter.error(
                        Code.TypeMismatch, mi.node.span,
                        f"method '{mi.name}' in concrete class '{info.name}' "
                        f"needs a body or an abstract modifier.")
                continue
            self.check_method_body(info, mi)
        for mi in info.constructors:
            if mi.node.body is not None:
                self.check_method_body(info, mi, constructor=True)
        if not info.is_interface and "abstract" not in info.node.modifiers:
            self.check_abstract_implementations(info)

    def check_abstract_implementations(self, info):
        implemented = {}
        for sup, subst in self.supertype_closure(info):
            for mi in sup.methods:
                params = tuple(pretty(substitute(p or VOID, subst))
                               for p in self.param_types(mi))
                key = (mi.name, params)
                has_body = mi.node.body is not None or sup.is_prelude
                if key not in implemented or implemented[key] is False:
                    implemented[key] = has_body or implemented.get(key, False)
        for (name, params), ok in implemented.items():
            if not ok:
                self.reporter.error(
                    Code.TypeMismatch, info.node.span,
                    f"'{info.name}' does not implement abstract method '{name}'.")

    def check_method_body(self, info, mi, constructor=False):
        scope = self.method_scope(info, mi)
        gamma = {}
        if not mi.is_static or constructor:
            gamma["this"] = self.self_type(info)
        for p in mi.node.params:
            t = self.denote(p.te, scope)
            if t is not None:
                gamma[p.name] = t
        if constructor:
            expected = VOID
        else:
            expected = self.denote(mi.node.return_te, scope)
            if expected is None:
                return
        ctx = _BodyCtx(info, mi, scope, constructor)
        self.check_stm(ctx, gamma, mi.node.body, expected)

    # ----------------------------------------------------------- statements

    def check_stm(self, ctx, gamma, stm, expected):
        while stm is not None:
            if isinstance(stm, S.Nil):
                return
            if isinstance(stm, S.Return):
                if stm.value is None:
                    if not isinstance(expected, TVoid):
                        self.reporter.error(
                            Code.TypeMismatch, stm.span, "Incompatible types:",
                            expecting=pretty(expected), found="void")
                else:
                    self.check_exp(ctx, gamma, stm.value, expected)
                return
            if isinstance(stm, S.ExpStm):
                self.synth_exp(ctx, gamma, stm.exp)
            elif isinstance(stm, S.VarDecl):
                t = self.denote(stm.te, ctx.scope)
                if t is not None:
                    self.var_tes[id(stm)] = t
                    if stm.init is not None:
                        self.check_exp(ctx, gamma, stm.init, t)
                    gamma = dict(gamma)
                    gamma[stm.name] = t
            elif isinstance(stm, S.Assign):
                if not isinstance(stm.target, (S.Name, S.FieldAcc)):
                    self.reporter.error(Code.TypeMismatch, stm.target.span,
                                        "assignment target must be a variable or field.")
                else:
                    t1 = self.synth_exp(ctx, gamma, stm.target)
                    if t1 is not None:
                        if stm.op != "=":
                            head, _ = spine(t1)
                            names = NUMERIC | {"Boolean", "String"}
                            if not (isinstance(head, TSym) and head.name in names):
                                self.reporter.error(
                                    Code.TypeMismatch, stm.span,
                                    f"operator '{stm.op}' needs a builtin operand type, "
                                    f"found '{pretty(t1)}'.")
                        self.check_exp(ctx, gamma, stm.value, t1)
            elif isinstance(stm, S.If):
                tg = self.synth_exp(ctx, gamma, stm.guard)
                if tg is not None:
                    self.require_boolean_guard(stm.guard, tg)
                self.check_stm(ctx, dict(gamma), stm.then, expected)
                self.check_stm(ctx, dict(gamma), stm.orelse, expected)
            elif isinstance(stm, S.Block):
                self.check_stm(ctx, dict(gamma), stm.body, expected)
            elif isinstance(stm, S.Switch):
                self.check_switch(ctx, gamma, stm, expected)
            elif isinstance(stm, S.TryCatch):
                self.check_stm(ctx, dict(gamma), stm.body, expected)
                for h in stm.handlers:
                    t = self.denote(h.te, ctx.scope)
                    inner = dict(gamma)
                    if t is not None:
                        inner[h.name] = t
                    self.check_stm(ctx, inner, h.body, expected)
            elif isinstance(stm, S.Throw):
                self.reporter.error(Code.InternalError, stm.span,
                                    "'throw' cannot appear in source choreographies.")
            else:
                raise TypeError(f"check_stm: {stm!r}")
            stm = getattr(stm, "cont", None)

    def require_boolean_guard(self, guard, tg):
        roles = roles_of_type(tg)
        ok = False
        if len(roles) == 1:
            head, args = spine(tg)
            role_args = [a for a in args if isinstance(a, TVar) and a.role]
            if role_args:
                ok = self.is_subtype(tg, app(TSym("Boolean"), role_args[0]))
        if not ok:
            self.reporter.error(
                Code.TypeMismatch, guard.span,
                "Incompatible types: conditions must be booleans located at "
                "exactly one role,", expecting="Boolean@<one role>", found=pretty(tg))

    def check_switch(self, ctx, gamma, stm, expected):
        tg = self.synth_exp(ctx, gamma, stm.guard)
        cases = None
        if tg is not None:
            head, _ = spine(tg)
            info = self.table.get(head.name) if isinstance(head, TSym) else None
            if info is None or not info.is_enum or len(roles_of_type(tg)) != 1:
                self.reporter.error(
                    Code.TypeMismatch, stm.guard.span,
                    "Incompatible types: switch guards must be enumerated values "
                    "at one role,", expecting="<enum>@<one role>", found=pretty(tg))
            else:
                cases = set(info.node.cases)
        seen = set()
        for c in stm.cases:
            if not isinstance(c.label, str):
                self.reporter.error(Code.TypeMismatch, c.span,
                                    "switch cases must name enum cases.")
            elif cases is not None and c.label not in cases:
                self.reporter.error(
                    Code.TypeMismatch, c.span,
                    f"'{c.label}' is not a case of '{pretty(tg)}'.")
            elif c.label in seen:
                self.reporter.error(Code.TypeMismatch, c.span,
                                    f"duplicate case '{c.label}'.")
            if isinstance(c.label, str):
                seen.add(c.label)
            self.check_stm(ctx, dict(gamma), c.body, expected)
        if stm.default is not None:
            self.check_stm(ctx, dict(gamma), stm.default, expected)

    # ---------------------------------------------------------- expressions

    def check_exp(self, ctx, gamma, exp, expected):
        t = self.synth_exp(ctx, gamma, exp)
        if t is None:
            return None
        if not self.is_subtype(t, expected):
            self.reporter.error(
                Code.TypeMismatch, exp.span, "Incompatible types:",
                expecting=pretty(expected), found=pretty(t))
        return t

    def annotate(self, exp, t):
        """Record a synthesised type; every synthesis rule yields a normal form."""
        if t is not None:
            self.exp_types[id(exp)] = t
        return t

    def synth_exp(self, ctx, gamma, exp):
        if id(exp) in self.exp_types:
            return self.exp_types[id(exp)]
        t = self._synth(ctx, gamma, exp)
        return self.annotate(exp, t)

    def _synth(self, ctx, gamma, exp):
        if isinstance(exp, S.Literal):
            return self.synth_literal(ctx, exp)
        if isinstance(exp, S.Name):
            return self.synth_name(ctx, gamma, exp)
        if isinstance(exp, S.StaticRef):
            self.reporter.error(Code.TypeMismatch, exp.span,
                                f"'{exp.name}' is a type, not a value.")
            return None
        if isinstance(exp, S.FieldAcc):
            return self.synth_field(ctx, gamma, exp)
        if isinstance(exp, S.Call):
            return self.synth_call(ctx, gamma, exp)
        if isinstance(exp, S.New):
            return self.synth_new(ctx, gamma, exp)
        if isinstance(exp, S.Binary):
            return self.synth_binary(ctx, gamma, exp)
        if isinstance(exp, S.Chain):
            self.reporter.error(Code.InternalError, exp.span,
                                "chains must be desugared before checking.")
            return None
        raise TypeError(f"_synth: {exp!r}")

    def synth_literal(self, ctx, exp):
        roles = []
        for r in exp.roles:
            rv = ctx.scope.roles.get(r)
            if rv is None:
                self.reporter.error(Code.UnknownName, exp.span, f"unknown role '{r}'.")
                return None
            roles.append(rv)
        if exp.value is None:
            return TBottom(tuple(r.name for r in roles))
        if len(roles) != 1:
            self.reporter.error(Code.TypeMismatch, exp.span,
                                "literals are located at exactly one role.")
            return None
        name = {bool: "Boolean", int: "Integer", float: "Double", str: "String"}[
            type(exp.value)
        ]
        return app(TSym(name), roles[0])

    def synth_name(self, ctx, gamma, exp):
        if exp.ident == "this":
            if "this" not in gamma:
                self.reporter.error(Code.UnknownName, exp.span,
                                    "'this' is not available in a static context.")
                return None
            return gamma["this"]
        if exp.ident in gamma:
            return gamma[exp.ident]
        ft = self.find_field(ctx.info, exp.ident,
                             static_only=ctx.mi.is_static and not ctx.constructor)
        if ft is not None:
            return ft
        self.reporter.error(Code.UnknownName, exp.span, f"unknown name '{exp.ident}'.")
        return None

    def find_field(self, info, name, static_only=False):
        for sup, subst in self.supertype_closure(info):
            for f in sup.fields():
                if f.name != name:
                    continue
                if static_only and not f.is_static():
                    continue
                t = self.denote(f.te, self.decl_scope(sup))
                if t is None or not subst:
                    return t
                return reduce_type(substitute(t, subst))
        return None

    def resolve_static_ref(self, ctx, ref):
        info = self.table.get(ref.name)
        if info is None:
            self.reporter.error(Code.UnknownName, ref.span, f"unknown type '{ref.name}'.")
            return None, None
        if len(ref.roles) != len(info.role_vars):
            self.reporter.error(
                Code.KindMismatch, ref.span,
                f"'{ref.name}' takes {len(info.role_vars)} role parameter(s).")
            return None, None
        if len(set(ref.roles)) != len(ref.roles):
            dup = [r for r in ref.roles if ref.roles.count(r) > 1][0]
            self.reporter.error(
                Code.RoleAliasing, ref.span,
                f"Illegal type instantiation: role '{dup}' must play exactly one "
                f"role in '{ref.name}'.")
            return None, None
        actuals = []
        for r in ref.roles:
            rv = ctx.scope.roles.get(r)
            if rv is None:
                self.reporter.error(Code.UnknownName, ref.span, f"unknown role '{r}'.")
                return None, None
            actuals.append(rv)
        return info, actuals

    def synth_field(self, ctx, gamma, exp):
        if isinstance(exp.scope, S.StaticRef):
            info, actuals = self.resolve_static_ref(ctx, exp.scope)
            if info is None:
                return None
            if info.is_enum and exp.name in info.node.cases:
                self.resolved[id(exp)] = ("enumcase", info)
                return app(info.sym, *actuals)
            mapping = {v.uid: a for v, a in zip(info.role_vars, actuals)}
            for f in info.fields():
                if f.name == exp.name and f.is_static():
                    t = self.denote(f.te, self.decl_scope(info))
                    if t is None:
                        return None
                    return reduce_type(substitute(t, mapping))
            self.reporter.error(Code.UnknownName, exp.span,
                                f"'{info.name}' has no static member '{exp.name}'.")
            return None
        st = self.synth_exp(ctx, gamma, exp.scope)
        if st is None:
            return None
        head, _ = spine(st)
        if isinstance(head, TSym) and head.name in self.table:
            t = self.member_field_type(st, exp.name)
            if t is not None:
                return t
        self.reporter.error(Code.UnknownName, exp.span,
                            f"'{pretty(st)}' has no field '{exp.name}'.")
        return None

    def member_field_type(self, t, name):
        for sup, subst, actuals in self.supertype_instances(t):
            for f in sup.fields():
                if f.name == name:
                    ft = self.denote(f.te, self.decl_scope(sup))
                    if ft is None:
                        return None
                    return reduce_type(substitute(ft, self.instantiate(subst, actuals)))
        return None

    def synth_call(self, ctx, gamma, exp):
        type_args = []
        for te in exp.type_args:
            t = self.denote(te, ctx.scope)
            if t is None:
                return None
            type_args.append(t)
        arg_types = []
        for a in exp.args:
            t = self.synth_exp(ctx, gamma, a)
            if t is None:
                return None
            arg_types.append(t)

        if exp.scope is None:
            if exp.name == "super":
                return self.synth_super(ctx, exp, type_args, arg_types)
            # Method of the enclosing declaration.
            receiver = self.self_type(ctx.info)
            static_ok = not (ctx.mi.is_static and not ctx.constructor)
            return self.resolve_invocation(
                exp, receiver, exp.name, type_args, arg_types,
                statics="either" if static_ok else "only")
        if isinstance(exp.scope, S.StaticRef):
            info, actuals = self.resolve_static_ref(ctx, exp.scope)
            if info is None:
                return None
            receiver = app(info.sym, *actuals, *[f.var for f in info.ftps])
            return self.resolve_invocation(exp, receiver, exp.name,
                                           type_args, arg_types, statics="only")
        st = self.synth_exp(ctx, gamma, exp.scope)
        if st is None:
            return None
        return self.resolve_invocation(exp, st, exp.name, type_args,
                                       arg_types, statics="either")

    def synth_super(self, ctx, exp, type_args, arg_types):
        if not ctx.constructor:
            self.reporter.error(Code.TypeMismatch, exp.span,
                                "'super(...)' is only allowed in constructors.")
            return None
        node = ctx.info.node
        if not isinstance(node, S.ClassDecl) or node.extends is None:
            self.reporter.error(Code.TypeMismatch, exp.span,
                                f"'{ctx.info.name}' has no superclass constructor.")
            return None
        st = self.denote(node.extends, ctx.scope)
        if st is None:
            return None
        head, args = spine(st)
        info = self.table.get(head.name) if isinstance(head, TSym) else None
        if info is None:
            return None
        formals = self.formals(info)
        mapping = {f.uid: a for f, a in zip(formals, args)}
        mi = self.pick_most_specific(exp, info.constructors, mapping, type_args,
                                     arg_types, "constructor", info)
        if mi is None:
            return None
        self.resolved[id(exp)] = ("super", mi[0])
        return VOID

    def resolve_invocation(self, exp, receiver, name, type_args, arg_types, statics):
        head, args = spine(receiver)
        info = self.table.get(head.name) if isinstance(head, TSym) else None
        if info is not None and len(args) != len(self.formals(info)):
            # Static receiver of a generic class: its own members only.
            actuals = {}
            if len(args) == len(info.role_vars):
                actuals = {f.uid: a for f, a in zip(info.role_vars, args)}
            decls = [(info, {}, actuals)]
        else:
            decls = self.supertype_instances(receiver)
        candidates = []
        for sup, subst, actuals in decls:
            mapping = None
            for mi in sup.methods:
                if mi.name != name or len(mi.node.params) != len(arg_types):
                    continue
                if statics == "only" and not mi.is_static:
                    continue
                if mapping is None:
                    mapping = self.instantiate(subst, actuals)
                candidates.append((mi, mapping))
        picked = self.pick_most_specific(exp, None, None, type_args, arg_types,
                                         name, None, prepared=candidates)
        if picked is None:
            return None
        mi, ret = picked
        self.resolved[id(exp)] = ("call", mi)
        return ret

    def pick_most_specific(self, exp, methods, mapping, type_args, arg_types,
                           what, owner, prepared=None):
        candidates = prepared
        if candidates is None:
            candidates = [(mi, mapping) for mi in methods
                          if len(mi.node.params) == len(arg_types)]
        applicable = []
        bound_errors = []
        for mi, sub in candidates:
            inst = self.instantiate_method(mi, sub, type_args, exp, bound_errors)
            if inst is None:
                continue
            params, ret = inst
            if all(self.is_subtype(a, p) for a, p in zip(arg_types, params)):
                applicable.append((mi, params, ret))
        if not applicable:
            # A type argument outside one overload's bound matters only when
            # no other overload applies: BiChannel@(A, B)<Integer, String>
            # offers com in both directions, each with its own bound.
            for lhs, rhs in bound_errors:
                self.reporter.error(
                    Code.TypeMismatch, exp.span, "Incompatible type argument:",
                    expecting=pretty(rhs), found=pretty(lhs))
            shown = ", ".join(pretty(t) for t in arg_types)
            self.reporter.error(
                Code.UnknownName, exp.span,
                f"no applicable {what if isinstance(what, str) else 'method'} "
                f"'{getattr(exp, 'name', what)}' for argument types ({shown}).")
            return None
        # Unique minimum under pointwise parameter subtyping.
        def at_most(a, b):
            return all(self.is_subtype(x, y) for x, y in zip(a[1], b[1]))

        minima = [c for c in applicable if all(at_most(c, o) for o in applicable)]
        if not minima:
            self.reporter.error(
                Code.AmbiguousOverload, exp.span,
                f"ambiguous invocation of '{getattr(exp, 'name', what)}': "
                f"no most specific overload.")
            return None
        first = minima[0]
        for other in minima[1:]:
            if not all(type_equal(x, y) for x, y in zip(first[1], other[1])):
                self.reporter.error(
                    Code.AmbiguousOverload, exp.span,
                    f"ambiguous invocation of '{getattr(exp, 'name', what)}'.")
                return None
        return first[0], first[2]

    def param_types(self, mi):
        """Normal forms of a method's parameter types, None where one failed
        to denote; at the formals of the method and its declaration."""
        out = self._param_types.get(id(mi))
        if out is None:
            scope = self.method_scope(mi.owner, mi)
            out = self._param_types[id(mi)] = tuple(self.denote(p.te, scope)
                                                    for p in mi.node.params)
        return out

    def return_type(self, mi):
        """Normal form of a method's return type (void for constructors),
        None if it failed to denote."""
        if id(mi) not in self._return_types:
            if mi.node.is_constructor or mi.node.return_te is None:
                t = VOID
            else:
                t = self.denote(mi.node.return_te, self.method_scope(mi.owner, mi))
            self._return_types[id(mi)] = t
        return self._return_types[id(mi)]

    def instantiate_method(self, mi, mapping, type_args, exp, bound_errors):
        """Substituted (param types, return type), or None if not applicable.

        A type argument outside its bound appends ``(argument, bound)`` to
        ``bound_errors``.
        """
        if mi.ftps:
            if len(type_args) != len(mi.ftps):
                if type_args:
                    return None
                self.reporter.error(
                    Code.TypeMismatch, exp.span,
                    f"'{mi.name}' needs {len(mi.ftps)} explicit type argument(s).")
                return None
            mapping = dict(mapping or {})
            for fi, actual in zip(mi.ftps, type_args):
                mapping[fi.var.uid] = self.coerce_argument(actual, fi.arity, exp)
        elif type_args:
            return None
        params = self.param_types(mi)
        if any(t is None for t in params):
            return None
        if mapping:
            params = [reduce_type(substitute(t, mapping)) for t in params]
        # Bound checks for instantiated method type parameters.
        for fi in mi.ftps:
            actual = mapping[fi.var.uid]
            for bound in fi.bound_ctors:
                b = reduce_type(substitute(bound, mapping))
                freshes = [fresh_var(v.name, role=True) for v in fi.role_binders]
                lhs = reduce_type(app(actual, *freshes))
                rhs = reduce_type(app(b, *freshes))
                if not self.is_subtype(lhs, rhs):
                    bound_errors.append((lhs, rhs))
                    return None
        ret = self.return_type(mi)
        if ret is None:
            return None
        if mapping:
            ret = reduce_type(substitute(ret, mapping))
        return params, ret

    def synth_new(self, ctx, gamma, exp):
        info = self.table.get(exp.class_name)
        if info is None:
            self.reporter.error(Code.UnknownName, exp.span,
                                f"unknown class '{exp.class_name}'.")
            return None
        if info.is_interface:
            self.reporter.error(Code.TypeMismatch, exp.span,
                                f"cannot instantiate interface '{exp.class_name}'.")
            return None
        ref = S.StaticRef(exp.span, exp.class_name, exp.roles)
        info2, actuals = self.resolve_static_ref(ctx, ref)
        if info2 is None:
            return None
        type_args = []
        if exp.type_args:
            if len(exp.type_args) != len(info.ftps):
                self.reporter.error(
                    Code.KindMismatch, exp.span,
                    f"'{info.name}' takes {len(info.ftps)} type argument(s).")
                return None
            for fi, te in zip(info.ftps, exp.type_args):
                t = self.denote(te, ctx.scope, as_argument_arity=fi.arity)
                if t is None:
                    return None
                type_args.append(t)
        elif info.ftps:
            self.reporter.error(Code.KindMismatch, exp.span,
                                f"'{info.name}' needs explicit type arguments.")
            return None
        arg_types = []
        for a in exp.args:
            t = self.synth_exp(ctx, gamma, a)
            if t is None:
                return None
            arg_types.append(t)
        mapping = {f.uid: a for f, a in zip(self.formals(info), actuals + type_args)}
        picked = self.pick_most_specific(exp, info.constructors, mapping, [],
                                         arg_types, "constructor", info)
        if picked is None:
            return None
        self.resolved[id(exp)] = ("new", picked[0])
        return app(info.sym, *actuals, *type_args)

    def synth_binary(self, ctx, gamma, exp):
        lt = self.synth_exp(ctx, gamma, exp.left)
        rt = self.synth_exp(ctx, gamma, exp.right)
        if lt is None or rt is None:
            return None

        def single_role(t):
            head, args = spine(t)
            roles = [a for a in args if isinstance(a, TVar) and a.role]
            if isinstance(head, TSym) and len(roles) == 1:
                return head.name, roles[0]
            return None, None

        lname, lrole = single_role(lt)
        rname, rrole = single_role(rt)

        def fail():
            self.reporter.error(
                Code.TypeMismatch, exp.span,
                f"operator '{exp.op}' needs both operands at one shared role,",
                expecting=pretty(lt), found=pretty(rt))
            return None

        if lname is None or rname is None or lrole.uid != rrole.uid:
            return fail()
        role = lrole
        if exp.op in BOOL_OPS:
            if lname == rname == "Boolean":
                return app(TSym("Boolean"), role)
            return fail()
        if exp.op in COMPARE_OPS:
            if lname == rname and lname in NUMERIC:
                return app(TSym("Boolean"), role)
            return fail()
        if exp.op in EQ_OPS:
            if lname == rname:
                return app(TSym("Boolean"), role)
            return fail()
        if exp.op in ARITH_OPS:
            if lname == rname and lname in NUMERIC:
                return app(TSym(lname), role)
            if exp.op == "+" and lname == rname == "String":
                return app(TSym("String"), role)
            return fail()
        return fail()


def collect_vars(t, out):
    """Append every variable of type ``t`` to ``out``; returns ``out``."""
    if isinstance(t, TVar):
        out.append(t)
    elif isinstance(t, TApp):
        collect_vars(t.ctor, out)
        collect_vars(t.arg, out)
    elif isinstance(t, TAbs):
        collect_vars(t.body, out)
    elif isinstance(t, TInter):
        for i in t.items:
            collect_vars(i, out)
    return out


class KindError(Exception):
    pass


@dataclass
class _BodyCtx:
    info: DeclInfo
    mi: MethodInfo
    scope: Scope
    constructor: bool


# ------------------------------------------------------------ prelude layer

_NOTHING = MappingProxyType({})


class PreludeLayer(NamedTuple):
    """The prelude's declarations, checked once: the tables a ``Checker``
    starts from, read-only. The default is the empty layer of a program
    without a prelude."""

    table: MappingProxyType = _NOTHING
    var_bounds: MappingProxyType = _NOTHING
    var_ftp: MappingProxyType = _NOTHING
    kinds: MappingProxyType = _NOTHING
    te_types: MappingProxyType = _NOTHING
    decl_scopes: MappingProxyType = _NOTHING
    method_scopes: MappingProxyType = _NOTHING
    decl_supers: MappingProxyType = _NOTHING
    closures: MappingProxyType = _NOTHING
    param_types: MappingProxyType = _NOTHING
    return_types: MappingProxyType = _NOTHING

    @classmethod
    def build(cls, decls):
        """Check the prelude ``decls`` alone and work out, eagerly, the
        scopes, supertypes, supertype closures, method signatures and kinds
        of every one of them. The prelude is trusted: a diagnostic here is
        a fault in it, raised as ``RuntimeError``."""
        ck = Checker(S.SurfaceProgram(list(decls)), Reporter(), cls(), decls)
        ck.build_table(is_prelude=True)
        ck.check_cycles()
        ck.validate_selection_annotations()
        for info in ck.own:
            ck.supertype_closure(info)
            for mi in info.methods + info.constructors:
                ck.param_types(mi)
                ck.return_type(mi)
        kinds = ck.kind_env()
        if ck.reporter.items:
            raise RuntimeError("prelude failed to check:\n" + "\n".join(
                d.render() for d in ck.reporter.items))
        tables = dict(
            table=ck.table, var_bounds=ck.var_bounds, var_ftp=ck.var_ftp, kinds=kinds,
            te_types=ck.te_types, decl_scopes=ck._decl_scopes, method_scopes=ck._method_scopes,
            decl_supers=ck._decl_supers, closures=ck._closures, param_types=ck._param_types,
            return_types=ck._return_types)
        return cls(**{name: MappingProxyType(t) for name, t in tables.items()})


_EMPTY_LAYER = PreludeLayer()
_last_layer = []  # [(prelude declarations, their PreludeLayer)], at most one


def prelude_layer(decls):
    """The layer of the prelude ``decls``, built on first use and kept for
    the next call with these very declaration objects."""
    if not decls:
        return _EMPTY_LAYER
    if _last_layer:
        kept, layer = _last_layer[0]
        if len(kept) == len(decls) and all(a is b for a, b in zip(kept, decls)):
            return layer
    layer = PreludeLayer.build(decls)
    _last_layer[:] = [(tuple(decls), layer)]
    return layer


def split_prelude(decls, prelude_names):
    """The leading prelude declarations (the first of each name in
    ``prelude_names``) and the program's own, which follow them."""
    seen = set()
    for i, decl in enumerate(decls):
        if decl.name not in prelude_names or decl.name in seen:
            return decls[:i], decls[i:]
        seen.add(decl.name)
    return decls, []


# ------------------------------------------------------------- entry point

def check_program(program, reporter=None, prelude_names=()):
    """Check ``program``, whose declarations start with those of the prelude
    when ``prelude_names`` names them; returns (CheckedProgram, reporter)."""
    reporter = reporter if reporter is not None else Reporter()
    prelude, own = split_prelude(program.decls, prelude_names)
    checked = Checker(program, reporter, prelude_layer(prelude), own).run()
    return checked, reporter
