"""Type denotation, subtyping, and bidirectional checking.

The pipeline: build the symbol table, run the role-constraint diagnostics
(aliasing, cyclic inheritance, role-set preservation, per-role overload
clashes), validate selection annotations, denote every member type, then
check member bodies bidirectionally. Denotation is where a type
expression's shape is checked (each head gets its number of roles and all
of its type arguments, as there are no raw types, and a type argument fits
the roles its formal binds), in member types and in bodies alike. The
checker is itself the checked program: its side tables answer ``type_of``,
``te_type`` and ``roles_of`` for the projector and interpreters.

The prelude's declarations are checked once per process into a read-only
``PreludeLayer``; each program's checker starts from copies of its tables,
shares its ``DeclInfo`` and ``MethodInfo`` objects with their facts, and
checks only the program's own declarations.
"""

from __future__ import annotations

import weakref
from types import MappingProxyType

from . import surface as S
from .diagnostics import Code, Reporter
from .printer import render_te
from .record import field, record
from .types import (
    VOID, TAbs, TBottom, TSym, TVar, TVoid, app, fresh_uid, fresh_var, pretty,
    reduce_type, role_canonical, roles_of_type, spine, substitute, type_equal,
)

ARITH_OPS = {"+", "-", "*", "/", "%"}
COMPARE_OPS = {"<", ">", "<=", ">="}
EQ_OPS = {"==", "!="}
BOOL_OPS = {"&&", "||", "&", "|"}
NUMERIC = {"Integer", "Long", "Double"}


# ------------------------------------------------------------ symbol table

@record
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


@record
class MethodInfo:
    node: S.Method
    owner: "DeclInfo"  # a weak proxy: the DeclInfo holds its MethodInfos
    ftps: list = field(default_factory=list)
    # Set with the symbol table; ``param_types`` and ``return_type`` fill
    # the other two on first use (``...``: not yet, None: failed to denote).
    scope: "Scope" = field(default=None, compare=False, repr=False)
    params: tuple = field(default=None, compare=False, repr=False)
    returns: object = field(default=..., compare=False, repr=False)
    slot: int = field(default_factory=fresh_uid, compare=False, repr=False)  # see ``overrides``

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


@record
class DeclInfo:
    node: S.Decl
    sym: TSym
    role_vars: list
    ftps: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    constructors: list = field(default_factory=list)
    is_prelude: bool = False
    # Set with the symbol table; ``direct_supertypes_of_decl`` fills supers.
    scope: "Scope" = field(default=None, compare=False, repr=False)
    supers: tuple = field(default=None, compare=False, repr=False)

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


@record
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


# ------------------------------------------------------------------ checker

class Checker:
    """Checks ``decls``, a program's own declarations, on top of
    ``prelude``, the ``PreludeLayer`` of the declarations before them. Each
    table starts as a plain copy of the layer's, so a lookup reads one dict.

    ``run`` returns the checker, which is the checked program: its side
    tables answer ``type_of``, ``te_type`` and ``roles_of`` for the
    projector and the evaluators. Role sets are filled on first use and kept
    per node, as the projector asks for them once per role at every node;
    equal sets are stored once.
    """

    def __init__(self, program: S.SurfaceProgram, reporter: Reporter, prelude, decls):
        self.program = program
        self.reporter = reporter
        self.decls = decls
        self.own = []  # DeclInfos of ``decls`` that entered the table
        self.table = prelude.table.copy()
        self.var_ftp = prelude.var_ftp.copy()  # TVar uid -> FTPInfo
        self.exp_types = {}
        self.te_types = prelude.te_types.copy()
        self.resolved = {}  # id(Call/New) -> (kind, MethodInfo)
        # (role_canonical key of receiver, type args and arg types, number of
        # type args, name, statics) -> (MethodInfo, return Type, the role
        # variables the key numbers) of the first call of that key, resolved
        # without a diagnostic.
        self._calls = {}
        self.suppressed = set()  # decl names whose bodies are skipped
        self.cyclic = set()  # decl names reported for cyclic inheritance
        self.tables = {}  # decl name -> its method table (``overrides``)
        self._overrides = {}  # decl name -> what ``overrides`` walked
        self._failed_tes = set()
        self._closures = prelude.closures.copy()  # decl name -> [(DeclInfo, subst)]
        self._type_roles = {}  # id(Exp or TE) -> roles of its own type
        self._exp_roles = {}  # id(Exp) -> roles of its type and all subterms
        self._role_sets = {}  # frozenset -> the one stored copy of it
        # What the oracle works out once (``interpreter.Facts``).
        self.facts = None

    # ------------------------------------------------------------ pipeline

    def run(self):
        self.build_table()
        self.check_role_constraints()
        self.validate_selection_annotations()
        self.denote_member_types()
        for info in self.own:
            if info.name not in self.suppressed:
                try:
                    self.check_decl(info)
                except RecursionError:  # the checker recurses per expression level
                    self.reporter.error(Code.InternalError, info.node.span,
                                        f"'{info.name}' is nested too deeply to check.")
        return self

    # ----------------------------------------------------- checked program

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
            scope = info.scope = Scope({v.name: v for v in info.role_vars}, {})
            if isinstance(info.node, (S.ClassDecl, S.InterfaceDecl)):
                info.ftps = self.build_ftps(info.node.ftps, scope)
                scope = info.scope = scope.child(types={f.name: f.var for f in info.ftps})
                owner = weakref.proxy(info)
                info.methods.extend(MethodInfo(m, owner) for m in info.node.methods)
                if isinstance(info.node, S.ClassDecl):
                    for c in info.node.constructors:
                        info.constructors.append(MethodInfo(c, owner))
                    if not info.constructors:
                        default = S.Method(info.node.span, [], ["public"], [], None,
                                           info.name, [], None, is_constructor=True)
                        info.constructors.append(MethodInfo(default, owner))
            # Method-level type parameters, and the scopes they extend.
            for mi in info.methods + info.constructors:
                mi.ftps = self.build_ftps(mi.node.ftps, scope)
                mi.scope = scope.child(types={f.name: f.var for f in mi.ftps})

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
                    ctor = TAbs(v, ctor)
                fi.bound_ctors.append(reduce_type(ctor))
        return out

    def bounds(self, var):
        """The bounds of a type variable, as constructors over its role
        binders."""
        fi = self.var_ftp.get(var.uid)
        return fi.bound_ctors if fi is not None else ()

    @staticmethod
    def formals(info):
        """A declaration's role variables, then its type variables."""
        return info.role_vars + [f.var for f in info.ftps]

    # --------------------------------------------------------- denotation

    def denote(self, te: S.TE, scope: Scope, as_argument_arity=None):
        """Implements the type denotation equations; records the normal form.

        This is where a type's shape is checked: each head gets exactly its
        roles, when any are written, and all of its type arguments, as
        there are no raw types. ``as_argument_arity`` is the number of roles
        of the formal a type argument is fitted to. Each ill-formed type
        expression is reported once, at the innermost one.

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
        if te.name in scope.types:
            head = scope.types[te.name]
            target_roles = self.var_ftp[head.uid].role_binders
            target_ftps = ()  # a type variable takes no type arguments
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

        if len(te.args) != len(target_ftps):
            self.reporter.error(
                Code.KindMismatch, te.span,
                f"'{te.name}' takes {len(target_ftps)} type argument(s), "
                f"{len(te.args)} given.")
            return None
        type_args = []
        for fi, arg in zip(target_ftps, te.args):
            at = self.denote(arg, scope, as_argument_arity=fi.arity)
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
                t = TAbs(v, t)
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
                body = TAbs(v, body)
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

    # ----------------------------------------------------------- subtyping

    def direct_supertypes_of_decl(self, info):
        """Denoted supertypes of a declaration, at its own formals."""
        if info.supers is not None:
            return info.supers
        out = []
        for te in info.super_tes():
            t = self.denote(te, info.scope)
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
        info.supers = tuple(out)
        return info.supers

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
        seen = {self.self_type(info)}
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
                if len(formals) != len(args) or t in seen:
                    continue
                seen.add(t)
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
            for b in self.bounds(head):
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
                       for bound in self.bounds(head))
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
            for te in info.super_tes():
                t = self.denote(te, info.scope)
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
        # declares (its own and those of its type parameters). A declaration
        # of one role never warns, and the walk stops once every role is seen.
        roles = info.role_names
        if len(roles) < 2:
            return
        unused = set(roles)
        for node in S.walk(info.node):
            if isinstance(node, (S.TE, S.Literal, S.StaticRef, S.New)):
                unused.difference_update(node.roles)
                if not unused:
                    return
        for role in roles:
            if role in unused:
                self.reporter.warn(
                    Code.UnusedRole, info.node.span,
                    f"role '{role}' of '{info.name}' is not used by any member "
                    f"or supertype.")

    def overrides(self, info):
        """The methods that the supertype closure of ``info`` reaches,
        grouped in the order met by their signature (``same_signature``), as
        ``(group_of, groups)``, kept per declaration: ``group_of[closure
        index, id(MethodInfo)]`` indexes ``groups``, each a list of
        ``(MethodInfo, subst)`` whose first overrides the rest (JLS 8.4.8).
        The walk also builds the class's method table, ``tables[info.name]``:
        each member's slot -> ``(MethodInfo, subst)`` of its group's first
        member with a body, which a call resolved to any of them runs (JLS
        15.12.4.4), but a static member's -> its own, as it is hidden, not
        overridden; and the slot of each constructor in the closure -> its
        own, which ``new`` and ``super(...)`` run."""
        found = self._overrides.get(info.name)
        if found is not None:
            return found
        groups, group_of, named = [], {}, {}  # named: (name, arity) -> group indices
        table = self.tables[info.name] = {}
        for i, (sup, subst) in enumerate(self.supertype_closure(info)):
            for c in sup.constructors:
                table[c.slot] = (c, subst)
            for mi in sup.methods:
                same = named.setdefault((mi.node.name, len(mi.node.params)), [])
                for g in same:
                    if self.same_signature(*groups[g][0], mi, subst):
                        break
                else:
                    g = len(groups)
                    same.append(g)
                    groups.append([])
                groups[g].append((mi, subst))
                group_of[i, id(mi)] = g
        for group in groups:
            for found in group:
                if found[0].node.body is not None:
                    for member in group:
                        table[member[0].slot] = member if member[0].is_static else found
                    break
        found = self._overrides[info.name] = group_of, groups
        return found

    def check_overload_clashes(self, info):
        """Per-role projected signatures must stay pairwise distinct. The
        class's own methods, and each inherited one that one of them does
        not override (``overrides``), are keyed per role by their name and
        erased parameter types. Each pair of one key that has an own method
        and no override is reported, at the first role where it meets, in
        the pairs' order. An inherited method is keyed only when an own
        method has its name and arity, as no other can be in a reported
        pair."""
        for mi in info.methods:  # first, so a diagnostic of their types keeps its place
            self.param_types(mi)
        group_of = self.overrides(info)[0]
        candidates = []  # (MethodInfo, [param Type], own: bool, group), own ones first
        keyed = {}  # (name, arity) -> the indices of its candidates
        for i, (sup, subst) in enumerate(self.supertype_closure(info)):
            for mi in sup.methods:
                key = (mi.name, len(mi.node.params))
                if i and key not in keyed:
                    continue
                params = self.param_types(mi)
                if any(p is None for p in params):
                    continue
                if subst:
                    params = [reduce_type(substitute(p, subst)) for p in params]
                group, same = group_of[i, id(mi)], keyed.setdefault(key, [])
                if i == 0 or any(candidates[k][2] and candidates[k][3] != group for k in same):
                    same.append(len(candidates))
                    candidates.append((mi, params, i == 0, group))
        shared = [same for same in keyed.values() if len(same) > 1]
        met = {}  # (i, j) -> the first role where candidates i < j meet
        for role in info.role_names:
            for same in shared:
                erasures = {}  # erased parameter types -> the indices of their candidates
                for j in same:
                    erased = tuple([self.erased_name(t, role) for t in candidates[j][1]])
                    for i in erasures.setdefault(erased, []):
                        met.setdefault((i, j), role)
                    erasures[erased].append(j)
        for (i, j), role in sorted(met.items()):
            m1, _, own1, group1 = candidates[i]
            m2, _, own2, group2 = candidates[j]
            if not own1 or (not own2 and group1 == group2):
                continue  # both inherited, or an override
            self.reporter.error(
                Code.IllegalOverload, (m2 if own2 else m1).node.span,
                f"Illegal overload: '{self.sig_text(m2)}' and "
                f"'{self.sig_text(m1)}' have the same signature for role '{role}'.")

    def same_signature(self, m1, subst1, m2, subst2):
        """Whether ``m2`` has the signature of ``m1`` (JLS 8.4.2), each taken
        at a class through its supertype-closure ``subst``: the same name,
        and the same parameter types and type-parameter bounds once ``m2``'s
        type parameters are renamed to ``m1``'s, by position."""
        if m1.name != m2.name or len(m1.node.params) != len(m2.node.params) \
                or len(m1.ftps) != len(m2.ftps):
            return False
        subst2 = dict(subst2)
        for f1, f2 in zip(m1.ftps, m2.ftps):
            if f1.arity != f2.arity or len(f1.bound_ctors) != len(f2.bound_ctors):
                return False
            subst2[f2.var.uid] = f1.var

        def agree(ts1, ts2):
            for t1, t2 in zip(ts1, ts2):
                if t1 is None or t2 is None:  # failed to denote
                    if t1 is not t2:
                        return False
                elif not type_equal(reduce_type(substitute(t1, subst1)),
                                    reduce_type(substitute(t2, subst2))):
                    return False
            return True

        return agree(self.param_types(m1), self.param_types(m2)) and all(
            agree(f1.bound_ctors, f2.bound_ctors) for f1, f2 in zip(m1.ftps, m2.ftps))

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
        pt = self.denote(mi.node.params[0].te, mi.scope)
        rt = self.denote(mi.node.return_te, mi.scope) if mi.node.return_te else None
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
            for bound in self.bounds(head):
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
        scope = info.scope
        for te in info.super_tes():
            yield te, scope
        for f in info.fields():
            yield f.te, scope
        for fi in info.ftps:
            inner = scope.child(roles={v.name: v for v in fi.role_binders})
            for bte in fi.bound_tes:
                yield bte, inner
        for mi in info.methods + info.constructors:
            if mi.node.return_te is not None:
                yield mi.node.return_te, mi.scope
            for p in mi.node.params:
                yield p.te, mi.scope
            for fi in mi.ftps:
                inner = mi.scope.child(roles={v.name: v for v in fi.role_binders})
                for bte in fi.bound_tes:
                    yield bte, inner

    def denote_member_types(self):
        """Denote every member type, so that each ill-formed or unknown one
        is reported, even in a field or a signature no body uses."""
        for info in self.own:
            if info.name not in self.suppressed:
                for te, scope in self.member_tes_with_scope(info):
                    self.denote(te, scope)

    def self_type(self, info):
        return app(info.sym, *info.role_vars, *[f.var for f in info.ftps])

    def check_decl(self, info):
        if info.is_enum:
            return
        for f in info.fields():
            if f.is_static():  # the evaluators know only the prelude's, such as System.out
                self.reporter.error(Code.TypeMismatch, f.span,
                                    f"field '{f.name}' in class '{info.name}' cannot be static.")
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
        """Each signature of the class's ``overrides`` needs a body, or a
        builtin one in the prelude."""
        for group in self.overrides(info)[1]:
            if not any(mi.node.body is not None or mi.owner.is_prelude for mi, _ in group):
                self.reporter.error(
                    Code.TypeMismatch, info.node.span,
                    f"'{info.name}' does not implement abstract method '{group[0][0].name}'.")

    def check_method_body(self, info, mi, constructor=False):
        scope = mi.scope
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
                t = self.denote(f.te, sup.scope)
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
                return app(info.sym, *actuals)
            mapping = {v.uid: a for v, a in zip(info.role_vars, actuals)}
            for f in info.fields():
                if f.name == exp.name and f.is_static():
                    t = self.denote(f.te, info.scope)
                    if t is None:
                        return None
                    return reduce_type(substitute(t, mapping))
            self.reporter.error(Code.UnknownName, exp.span,
                                f"'{info.name}' has no static member '{exp.name}'.")
            return None
        st = self.synth_exp(ctx, gamma, exp.scope)
        if st is None:
            return None
        if st is gamma.get("this"):
            # As a bare name is: the class's self type needs no unwinding.
            t = self.find_field(ctx.info, exp.name)
        else:
            head, _ = spine(st)
            t = (self.member_field_type(st, exp.name)
                 if isinstance(head, TSym) and head.name in self.table else None)
        if t is not None:
            return t
        self.reporter.error(Code.UnknownName, exp.span,
                            f"'{pretty(st)}' has no field '{exp.name}'.")
        return None

    def member_field_type(self, t, name):
        for sup, subst, actuals in self.supertype_instances(t):
            for f in sup.fields():
                if f.name == name:
                    ft = self.denote(f.te, sup.scope)
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
        mi = self.pick_most_specific(exp, [(c, mapping) for c in info.constructors],
                                     type_args, arg_types, "constructor", info.name)
        if mi is None:
            return None
        self.resolved[id(exp)] = ("super", mi[0])
        return VOID

    def resolve_invocation(self, exp, receiver, name, type_args, arg_types, statics):
        """The return type of the method call ``exp``, recording its
        MethodInfo in ``resolved``; None after reporting why none applies.

        Every other input of a resolution (the table, the type variables'
        bounds and binders, the supertype closures) is fixed before the first
        body is checked, and every rule it applies tells role variables apart
        only by identity. So calls whose receiver, type arguments and argument
        types are one shape up to a renaming of their roles and binders
        (``role_canonical``) resolve alike wherever they appear, with the
        return type renamed to each call's roles. A call that reported
        nothing is resolved once per compile; one that reports is resolved
        again at each site, which reports at its own span. A call that
        mentions a type variable is resolved at each site, as its bounds may
        name roles that a renaming of the call's roles leaves as they are.
        """
        shape = role_canonical([receiver, *type_args, *arg_types])
        if shape is not None:
            terms, roles = shape
            key = (terms, len(type_args), name, statics)
            known = self._calls.get(key)
            if known is not None:
                mi, ret, at = known
                self.resolved[id(exp)] = ("call", mi)
                # Renaming roles to roles keeps a normal form normal.
                renaming = {v.uid: w for v, w in zip(at, roles)
                            if v is not None and v.uid != w.uid}
                return substitute(ret, renaming) if renaming else ret
        reported = len(self.reporter.items)
        candidates = []
        for sup, subst, actuals in self.supertype_instances(receiver):
            mapping = None
            for mi in sup.methods:
                if mi.name != name or len(mi.node.params) != len(arg_types):
                    continue
                if statics == "only" and not mi.is_static:
                    continue
                if mapping is None:
                    mapping = self.instantiate(subst, actuals)
                candidates.append((mi, mapping))
        picked = self.pick_most_specific(exp, candidates, type_args, arg_types,
                                         "method", name)
        if picked is None:
            return None
        mi, ret = picked
        self.resolved[id(exp)] = ("call", mi)
        if shape is not None and len(self.reporter.items) == reported:
            self._calls[key] = (mi, ret, roles)
        return ret

    def pick_most_specific(self, exp, candidates, type_args, arg_types, kind, name):
        """(MethodInfo, return type) of the most specific applicable one of
        ``candidates``, pairs of a MethodInfo and the mapping of its
        declaration's formals; None after reporting on the ``kind`` ``name``."""
        applicable = []
        bound_errors = []
        for mi, sub in candidates:
            if len(mi.node.params) != len(arg_types):
                continue
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
                f"no applicable {kind} '{name}' for argument types ({shown}).")
            return None
        # Unique minimum under pointwise parameter subtyping.
        def at_most(a, b):
            return all(self.is_subtype(x, y) for x, y in zip(a[1], b[1]))

        minima = [c for c in applicable if all(at_most(c, o) for o in applicable if o is not c)]
        if not minima:
            self.reporter.error(
                Code.AmbiguousOverload, exp.span,
                f"ambiguous invocation of '{name}': "
                f"no most specific overload.")
            return None
        first = minima[0]
        for other in minima[1:]:
            if not all(type_equal(x, y) for x, y in zip(first[1], other[1])):
                self.reporter.error(
                    Code.AmbiguousOverload, exp.span,
                    f"ambiguous invocation of '{name}'.")
                return None
        return first[0], first[2]

    def param_types(self, mi):
        """Normal forms of a method's parameter types, None where one failed
        to denote; at the formals of the method and its declaration."""
        if mi.params is None:
            mi.params = tuple(self.denote(p.te, mi.scope) for p in mi.node.params)
        return mi.params

    def return_type(self, mi):
        """Normal form of a method's return type (void for constructors),
        None if it failed to denote."""
        if mi.returns is ...:
            if mi.node.is_constructor or mi.node.return_te is None:
                mi.returns = VOID
            else:
                mi.returns = self.denote(mi.node.return_te, mi.scope)
        return mi.returns

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
        picked = self.pick_most_specific(exp, [(c, mapping) for c in info.constructors],
                                         [], arg_types, "constructor", info.name)
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
            name = head.name if isinstance(head, TSym) else None
            return name, roles[0] if len(roles) == 1 else None

        lname, role = single_role(lt)
        rname, rrole = single_role(rt)
        if role is None or rrole is None or role.uid != rrole.uid:
            self.reporter.error(
                Code.TypeMismatch, exp.span,
                f"operator '{exp.op}' needs both operands at one shared role,",
                expecting=pretty(lt), found=pretty(rt))
            return None
        result = None
        if lname is not None and lname == rname:
            if exp.op in BOOL_OPS:
                result = "Boolean" if lname == "Boolean" else None
            elif exp.op in COMPARE_OPS:
                result = "Boolean" if lname in NUMERIC else None
            elif exp.op in EQ_OPS:
                result = "Boolean"
            elif exp.op in ARITH_OPS:
                if lname in NUMERIC or (exp.op == "+" and lname == "String"):
                    result = lname
        if result is None:
            self.reporter.error(
                Code.TypeMismatch, exp.span,
                f"operator '{exp.op}' cannot be applied to '{pretty(lt)}' and '{pretty(rt)}'.")
            return None
        return app(TSym(result), role)


@record
class _BodyCtx:
    info: DeclInfo
    mi: MethodInfo
    scope: Scope
    constructor: bool


# ------------------------------------------------------------ prelude layer

_NOTHING = MappingProxyType({})


@record(frozen=True)
class PreludeLayer:
    """The prelude's declarations, checked once: the tables a ``Checker``
    starts from, read-only. The default is the empty layer of a program
    without a prelude. The facts of each declaration and method are on its
    ``DeclInfo`` and ``MethodInfo``, shared by every program's table.
    Supertype closures stay a table, as a closure lists its own
    declaration: kept on the ``DeclInfo`` it would make a reference cycle.
    """

    table: MappingProxyType = _NOTHING
    var_ftp: MappingProxyType = _NOTHING
    te_types: MappingProxyType = _NOTHING
    closures: MappingProxyType = _NOTHING

    @classmethod
    def build(cls, decls):
        """Check the prelude ``decls`` alone and work out, eagerly, the
        supertypes, supertype closures and method signatures of every one
        of them, so that no program's checker writes to them. The prelude
        is trusted: a diagnostic here is a fault in it, raised as
        ``RuntimeError``."""
        ck = Checker(S.SurfaceProgram(list(decls)), Reporter(), cls(), decls)
        ck.build_table(is_prelude=True)
        ck.check_cycles()
        ck.validate_selection_annotations()
        for info in ck.own:
            ck.supertype_closure(info)
            for mi in info.methods + info.constructors:
                ck.param_types(mi)
                ck.return_type(mi)
        if ck.reporter.items:
            raise RuntimeError("prelude failed to check:\n" + "\n".join(
                d.render() for d in ck.reporter.items))
        return cls(MappingProxyType(ck.table), MappingProxyType(ck.var_ftp),
                   MappingProxyType(ck.te_types), MappingProxyType(ck._closures))


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
    when ``prelude_names`` names them; returns (the ``Checker``, reporter)."""
    reporter = reporter if reporter is not None else Reporter()
    prelude, own = split_prelude(program.decls, prelude_names)
    checked = Checker(program, reporter, prelude_layer(prelude), own).run()
    return checked, reporter
