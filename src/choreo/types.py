"""Kinds and types.

The type grammar: variables, declaration symbols, abstraction, application,
intersections, and function types. Roles are types of a dedicated role kind
and only ever appear as variables bound by a declaration or a formal type
parameter. Fully constructed nominal types are application spines
``Sym[role...][typearg...]`` and inhabit a bounded star kind.

An internal bottom type carries the role list of a ``null`` literal; it is
assignable to any reference type located at exactly those roles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

_uids = itertools.count(1)


def fresh_uid():
    return next(_uids)


# ---------------------------------------------------------------- kinds

@dataclass(frozen=True)
class RoleKind:
    def __str__(self):
        return "@"


@dataclass(frozen=True)
class StarKind:
    bound: "Type" = None  # None = unbounded

    def __str__(self):
        return f"*({self.bound})" if self.bound is not None else "*"


@dataclass(frozen=True)
class CtorKind:
    var: str
    param: "Kind"
    result: "Kind"

    def __str__(self):
        return f"[{self.var}::{self.param}]=>{self.result}"


ROLE_KIND = RoleKind()


def kind_shape_eq(a, b):
    """Compare kinds by shape: role vs star vs constructor arity/structure."""
    if isinstance(a, RoleKind) and isinstance(b, RoleKind):
        return True
    if isinstance(a, StarKind) and isinstance(b, StarKind):
        return True
    if isinstance(a, CtorKind) and isinstance(b, CtorKind):
        return kind_shape_eq(a.param, b.param) and kind_shape_eq(a.result, b.result)
    return False


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class TVar:
    """Type or role variable; identity is the uid, the name is for display."""

    name: str
    uid: int
    role: bool = False

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class TSym:
    """Symbol introduced by a class/interface/enum declaration."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class TAbs:
    var: TVar
    kind: "Kind"
    body: "Type"

    def __str__(self):
        return f"[{self.var}]->{self.body}"


@dataclass(frozen=True)
class TApp:
    ctor: "Type"
    arg: "Type"

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True)
class TInter:
    items: tuple

    def __str__(self):
        return "&(" + ", ".join(str(t) for t in self.items) + ")"


@dataclass(frozen=True)
class TFun:
    params: tuple
    result: "Type"

    def __str__(self):
        return "(" + ", ".join(str(t) for t in self.params) + ")->" + str(self.result)


@dataclass(frozen=True)
class TVoid:
    def __str__(self):
        return "void"


@dataclass(frozen=True)
class TBottom:
    """Type of a null literal, located at a fixed role list."""

    roles: tuple

    def __str__(self):
        return "null@(" + ", ".join(str(r) for r in self.roles) + ")"


VOID = TVoid()


def fresh_var(name, role=False):
    return TVar(name, fresh_uid(), role)


def app(ctor, *args):
    t = ctor
    for a in args:
        t = TApp(t, a)
    return t


def spine(t):
    """Unwind an application spine to (head, [args])."""
    args = []
    while isinstance(t, TApp):
        args.append(t.arg)
        t = t.ctor
    args.reverse()
    return t, args


# ------------------------------------------------------------ operations

def substitute(t, mapping):
    """Capture-avoiding substitution of TVars (keyed by uid)."""
    if isinstance(t, TVar):
        return mapping.get(t.uid, t)
    if isinstance(t, TSym) or isinstance(t, TVoid) or isinstance(t, TBottom):
        return t
    if isinstance(t, TApp):
        return TApp(substitute(t.ctor, mapping), substitute(t.arg, mapping))
    if isinstance(t, TAbs):
        # Binder uids are globally fresh, so shadowing cannot occur; still
        # rename when the mapping could capture the binder.
        var = t.var
        body = t.body
        if any(_occurs(var, v) for v in mapping.values()):
            renamed = fresh_var(var.name, var.role)
            body = substitute(body, {var.uid: renamed})
            var = renamed
        inner = {k: v for k, v in mapping.items() if k != var.uid}
        return TAbs(var, t.kind, substitute(body, inner))
    if isinstance(t, TInter):
        return TInter(tuple(substitute(i, mapping) for i in t.items))
    if isinstance(t, TFun):
        return TFun(tuple(substitute(p, mapping) for p in t.params), substitute(t.result, mapping))
    raise TypeError(f"substitute: {t!r}")


def _occurs(var, t):
    if isinstance(t, TVar):
        return t.uid == var.uid
    if isinstance(t, TApp):
        return _occurs(var, t.ctor) or _occurs(var, t.arg)
    if isinstance(t, TAbs):
        return _occurs(var, t.body)
    if isinstance(t, TInter):
        return any(_occurs(var, i) for i in t.items)
    if isinstance(t, TFun):
        return any(_occurs(var, p) for p in t.params) or _occurs(var, t.result)
    return False


def reduce_type(t):
    """Normal form under beta (``(Abs X. body)[arg] -> body{arg/X}``) and eta
    (``Abs X. f[X] -> f`` when X is not free in f). A term already in normal
    form is returned as it is, not copied."""
    cls = type(t)
    if cls is TApp:
        ctor = reduce_type(t.ctor)
        arg = reduce_type(t.arg)
        if type(ctor) is TAbs:
            return reduce_type(substitute(ctor.body, {ctor.var.uid: arg}))
        if ctor is t.ctor and arg is t.arg:
            return t
        return TApp(ctor, arg)
    if cls is TVar or cls is TSym:
        return t
    if cls is TAbs:
        body = reduce_type(t.body)
        if (
            isinstance(body, TApp)
            and isinstance(body.arg, TVar)
            and body.arg.uid == t.var.uid
            and not _occurs(t.var, body.ctor)
        ):
            return reduce_type(body.ctor)
        return t if body is t.body else TAbs(t.var, t.kind, body)
    if cls is TInter:
        items = tuple(reduce_type(i) for i in t.items)
        if all(a is b for a, b in zip(items, t.items)):
            return t
        return TInter(items)
    if cls is TFun:
        return TFun(tuple(reduce_type(p) for p in t.params), reduce_type(t.result))
    return t


def type_equal(a, b, env=None):
    """Structural equality on reduced types, alpha-aware for abstractions."""
    env = env or {}
    if isinstance(a, TVar) and isinstance(b, TVar):
        return env.get(a.uid, a.uid) == b.uid
    if isinstance(a, TSym) and isinstance(b, TSym):
        return a.name == b.name
    if isinstance(a, TVoid) and isinstance(b, TVoid):
        return True
    if isinstance(a, TBottom) and isinstance(b, TBottom):
        return a.roles == b.roles
    if isinstance(a, TApp) and isinstance(b, TApp):
        return type_equal(a.ctor, b.ctor, env) and type_equal(a.arg, b.arg, env)
    if isinstance(a, TAbs) and isinstance(b, TAbs):
        inner = dict(env)
        inner[a.var.uid] = b.var.uid
        return type_equal(a.body, b.body, inner)
    if isinstance(a, TInter) and isinstance(b, TInter):
        return len(a.items) == len(b.items) and all(
            type_equal(x, y, env) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, TFun) and isinstance(b, TFun):
        return (
            len(a.params) == len(b.params)
            and all(type_equal(x, y, env) for x, y in zip(a.params, b.params))
            and type_equal(a.result, b.result, env)
        )
    return False


def roles_of_type(t):
    """Names of the role variables occurring in a type."""
    out = set()
    _add_roles(t, out)
    return out


def _add_roles(u, out):
    # Not a closure: a nested function that calls itself is a reference
    # cycle, left to the cyclic collector after every call.
    if isinstance(u, TVar):
        if u.role:
            out.add(u.name)
    elif isinstance(u, TApp):
        _add_roles(u.ctor, out)
        _add_roles(u.arg, out)
    elif isinstance(u, TAbs):
        _add_roles(u.body, out)
    elif isinstance(u, TInter):
        for i in u.items:
            _add_roles(i, out)
    elif isinstance(u, TFun):
        for p in u.params:
            _add_roles(p, out)
        _add_roles(u.result, out)
    elif isinstance(u, TBottom):
        out.update(u.roles)


def pretty(t):
    """Render a type the way diagnostics show it, e.g. ``SymChannel@(A, B)<T>``."""
    t = reduce_type(t)
    if isinstance(t, TApp):
        head, args = spine(t)
        roles = [a for a in args if isinstance(a, TVar) and a.role]
        tyargs = [a for a in args if not (isinstance(a, TVar) and a.role)]
        s = str(head)
        if len(roles) == 1:
            s += f"@{roles[0]}"
        elif roles:
            s += "@(" + ", ".join(str(r) for r in roles) + ")"
        if tyargs:
            s += "<" + ", ".join(pretty(a) for a in tyargs) + ">"
        return s
    return str(t)
