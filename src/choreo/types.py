"""Types.

The type grammar: variables, declaration symbols, abstraction over a role,
and application. Roles only ever appear as variables bound by a
declaration, a formal type parameter or an abstraction. Fully constructed
nominal types are application spines ``Sym[role...][typearg...]``; a type
argument of a formal that binds roles is an abstraction over them. The
checker's denotation (``Checker._denote``) gives every head its number of
roles and type arguments, so a term built from a type expression is well
formed by construction.

An internal bottom type carries the role list of a ``null`` literal; it is
assignable to any reference type located at exactly those roles.
"""

from __future__ import annotations

import itertools

from .record import record

_uids = itertools.count(1)


def fresh_uid():
    return next(_uids)


# ---------------------------------------------------------------- types

@record(frozen=True)
class TVar:
    """Type or role variable; identity is the uid, the name is for display."""

    name: str
    uid: int
    role: bool = False

    def __str__(self):
        return self.name


@record(frozen=True)
class TSym:
    """Symbol introduced by a class/interface/enum declaration."""

    name: str

    def __str__(self):
        return self.name


@record(frozen=True)
class TAbs:
    """Abstraction of a type over one role variable."""

    var: TVar
    body: "Type"

    def __str__(self):
        return f"[{self.var}]->{self.body}"


@record(frozen=True)
class TApp:
    ctor: "Type"
    arg: "Type"

    def __str__(self):
        return pretty(self)


@record(frozen=True)
class TVoid:
    def __str__(self):
        return "void"


@record(frozen=True)
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
    """Capture-avoiding substitution of TVars (keyed by uid). A term the
    mapping leaves unchanged is returned as it is, not copied."""
    cls = type(t)
    if cls is TApp:
        ctor = substitute(t.ctor, mapping)
        arg = substitute(t.arg, mapping)
        if ctor is t.ctor and arg is t.arg:
            return t
        return TApp(ctor, arg)
    if cls is TVar:
        return mapping.get(t.uid, t)
    if cls is TAbs:
        # Binder uids are globally fresh, so shadowing cannot occur; still
        # rename when the mapping could capture the binder.
        var = t.var
        body = t.body
        if any(_occurs(var, v) for v in mapping.values()):
            renamed = fresh_var(var.name, var.role)
            body = substitute(body, {var.uid: renamed})
            var = renamed
        inner = {k: v for k, v in mapping.items() if k != var.uid}
        body = substitute(body, inner)
        return t if var is t.var and body is t.body else TAbs(var, body)
    if cls is TSym or cls is TVoid or cls is TBottom:
        return t
    raise TypeError(f"substitute: {t!r}")


def _occurs(var, t):
    if isinstance(t, TVar):
        return t.uid == var.uid
    if isinstance(t, TApp):
        return _occurs(var, t.ctor) or _occurs(var, t.arg)
    if isinstance(t, TAbs):
        return _occurs(var, t.body)
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
        return t if body is t.body else TAbs(t.var, body)
    return t


def type_equal(a, b, env=None):
    """Structural equality on reduced types, alpha-aware for abstractions."""
    if a is b and not env:  # under a binder, env may tell a term from itself
        return True
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
    return False


class _Unshared(Exception):
    """Two role variables of one key share a name, or a type variable occurs."""


def role_canonical(terms):
    """A key of nested tuples for ``terms``, equal for every list of terms
    that differs from them only by an injective renaming of their free role
    variables and of their binders, and the role variables the key numbers,
    in order: None for a number only a ``TBottom`` names. None when two role
    variables of ``terms`` share a name, as a ``TBottom`` names its roles,
    or a type variable occurs, whose bounds may name roles that a renaming
    leaves as they are.

    In the key a free role variable, and a ``TBottom`` role name, is its
    number in order of first occurrence; a binder is its depth (after de
    Bruijn), as a negative number; a symbol is its name and an application
    spine the tuple of its head and its arguments.
    """
    numbers = {}  # role name -> its number in the key
    roles = []
    try:
        key = tuple([_canonical(t, numbers, roles, {}) for t in terms])
    except _Unshared:
        return None
    return key, roles


def _canonical(t, numbers, roles, binders):
    cls = type(t)
    if cls is TApp:
        args = []
        while cls is TApp:
            args.append(t.arg)
            t = t.ctor
            cls = type(t)
        args.append(t)
        args.reverse()
        out = []
        for a in args:  # most are symbols and free roles, keyed here without a call
            cls = type(a)
            if cls is TSym:
                out.append(a.name)
            elif cls is TVar and a.role and a.uid not in binders:
                out.append(_role_number(a.name, a, numbers, roles))
            else:
                out.append(_canonical(a, numbers, roles, binders))
        return tuple(out)
    if cls is TVar:
        if not t.role:
            raise _Unshared
        depth = binders.get(t.uid)
        if depth is not None:
            return -1 - depth
        return _role_number(t.name, t, numbers, roles)
    if cls is TSym:
        return t.name
    if cls is TAbs:
        binders[t.var.uid] = len(binders)
        body = _canonical(t.body, numbers, roles, binders)
        del binders[t.var.uid]
        return (body,)
    if cls is TBottom:
        return (None, tuple(_role_number(r, None, numbers, roles) for r in t.roles))
    return None  # void


def _role_number(name, var, numbers, roles):
    i = numbers.get(name)
    if i is None:
        numbers[name] = i = len(roles)
        roles.append(var)
    elif var is not None:
        had = roles[i]
        if had is None:
            roles[i] = var
        elif had.uid != var.uid:
            raise _Unshared
    return i


def roles_of_type(t):
    """Names of the free role variables of a type: a role variable that a
    ``TAbs`` binds is none of its roles."""
    out = set()
    _add_roles(t, out, frozenset())
    return out


def _add_roles(u, out, bound):
    # Not a closure: a nested function that calls itself is a reference
    # cycle, left to the cyclic collector after every call.
    if isinstance(u, TVar):
        if u.role and u.uid not in bound:
            out.add(u.name)
    elif isinstance(u, TApp):
        _add_roles(u.ctor, out, bound)
        _add_roles(u.arg, out, bound)
    elif isinstance(u, TAbs):
        _add_roles(u.body, out, bound | {u.var.uid})
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
