"""Surface AST for role-annotated choreography sources.

Statements are continuation-structured: every statement except ``Nil`` and
``Return`` carries the rest of its block in ``cont``, mirroring the source
grammar. Nodes compare by identity (checker annotations are keyed by node),
and every node carries a span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .span import Span


@dataclass(eq=False)
class Node:
    span: Span


# ------------------------------------------------------------ type exprs

@dataclass(eq=False)
class TE(Node):
    """Type expression ``id[@(roles)][<TE...>]`` or ``void``."""

    name: str
    roles: list  # role identifier strings, possibly empty
    args: list  # nested TEs
    is_void: bool = False


# ------------------------------------------------------------ expressions

@dataclass(eq=False)
class Exp(Node):
    pass


@dataclass(eq=False)
class Literal(Exp):
    value: object  # int | float | str | bool | None
    roles: list  # one role normally; several for null@(..) and @[..] sugar
    is_list_sugar: bool = False  # lit@[R1,..,Rn] awaiting expansion


@dataclass(eq=False)
class Name(Exp):
    """Variable, parameter, implicit field, or ``this``."""

    ident: str


@dataclass(eq=False)
class StaticRef(Exp):
    """Class reference with role arguments, used as a scope: ``Choice@A``."""

    name: str
    roles: list


@dataclass(eq=False)
class FieldAcc(Exp):
    scope: Exp  # Name | StaticRef | any expression
    name: str


@dataclass(eq=False)
class Call(Exp):
    """Method invocation; ``scope`` is None for unqualified calls."""

    scope: Exp
    type_args: list  # TEs
    name: str
    args: list


@dataclass(eq=False)
class New(Exp):
    class_name: str
    roles: list
    type_args: list
    args: list


@dataclass(eq=False)
class Binary(Exp):
    left: Exp
    op: str
    right: Exp


@dataclass(eq=False)
class ChainLink(Node):
    """One ``>> target::<TAs>method`` or ``>> id@(..)<TAs>::new`` link."""

    target: Exp  # receiver path or StaticRef; None for constructor links
    type_args: list
    method: str  # method name; "new" for constructor links
    new_class: str = None
    new_roles: list = None


@dataclass(eq=False)
class Chain(Exp):
    first: Exp
    links: list


# ------------------------------------------------------------- statements

@dataclass(eq=False)
class Stm(Node):
    pass


@dataclass(eq=False)
class Nil(Stm):
    pass


@dataclass(eq=False)
class Return(Stm):
    value: Exp  # optional


@dataclass(eq=False)
class Throw(Stm):
    """Only produced when reading back generated local units."""

    message: str


@dataclass(eq=False)
class ExpStm(Stm):
    exp: Exp
    cont: Stm = None


@dataclass(eq=False)
class VarDecl(Stm):
    te: TE
    name: str
    init: Exp  # optional
    cont: Stm = None


@dataclass(eq=False)
class Assign(Stm):
    target: Exp
    op: str  # "=", "+=", ...
    value: Exp
    cont: Stm = None


@dataclass(eq=False)
class If(Stm):
    guard: Exp
    then: Stm
    orelse: Stm  # Nil when no else branch
    cont: Stm = None


@dataclass(eq=False)
class Block(Stm):
    body: Stm
    cont: Stm = None


@dataclass(eq=False)
class SwitchCase(Node):
    label: object  # case identifier string, or Literal; None for default
    body: Stm

    def __iter__(self):
        """Unpacks as ``(label, body)``, as a local switch's case does."""
        return iter((self.label, self.body))


@dataclass(eq=False)
class Switch(Stm):
    guard: Exp
    cases: list  # SwitchCase with label != None
    default: Stm  # optional
    cont: Stm = None


@dataclass(eq=False)
class CatchClause(Node):
    te: TE
    name: str
    body: Stm


@dataclass(eq=False)
class TryCatch(Stm):
    body: Stm
    handlers: list
    cont: Stm = None


# ------------------------------------------------------------ declarations

@dataclass(eq=False)
class Annotation(Node):
    name: str
    args: list  # (key, literal value) pairs


@dataclass(eq=False)
class FTP(Node):
    """Formal type parameter: ``T@(X,..) [extends TE & TE...]``."""

    name: str
    roles: list
    bounds: list


@dataclass(eq=False)
class Param(Node):
    te: TE
    name: str


@dataclass(eq=False)
class Method(Node):
    annotations: list
    modifiers: list
    ftps: list
    return_te: TE
    name: str
    params: list
    body: Stm  # None for signature-only members
    is_constructor: bool = False

    def is_static(self):
        return "static" in self.modifiers


@dataclass(eq=False)
class FieldDecl(Node):
    annotations: list
    modifiers: list
    te: TE
    name: str

    def is_static(self):
        return "static" in self.modifiers


@dataclass(eq=False)
class Decl(Node):
    annotations: list
    modifiers: list
    name: str
    roles: list


@dataclass(eq=False)
class EnumDecl(Decl):
    cases: list = field(default_factory=list)


@dataclass(eq=False)
class InterfaceDecl(Decl):
    ftps: list = field(default_factory=list)
    extends: list = field(default_factory=list)
    methods: list = field(default_factory=list)


@dataclass(eq=False)
class ClassDecl(Decl):
    ftps: list = field(default_factory=list)
    extends: TE = None
    implements: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    constructors: list = field(default_factory=list)
    methods: list = field(default_factory=list)


@dataclass(eq=False)
class SurfaceProgram:
    decls: list

    def decl(self, name):
        for d in self.decls:
            if d.name == name:
                return d
        return None


# --------------------------------------------------------------- helpers

def stm_list(stm):
    """Flatten a continuation chain into a list of statements."""
    out = []
    while stm is not None and not isinstance(stm, Nil):
        out.append(stm)
        stm = getattr(stm, "cont", None)
    return out


def sub_exps(exp):
    """The direct subexpressions of an expression, in source order."""
    if isinstance(exp, FieldAcc):
        return [exp.scope]
    if isinstance(exp, Call):
        return ([exp.scope] if exp.scope is not None else []) + list(exp.args)
    if isinstance(exp, New):
        return list(exp.args)
    if isinstance(exp, Binary):
        return [exp.left, exp.right]
    if isinstance(exp, Chain):
        return [exp.first] + [link.target for link in exp.links if link.target is not None]
    return []


def walk_exps(node):
    """Yield every expression node reachable from a statement or expression."""
    if node is None:
        return
    if isinstance(node, Exp):
        yield node
        for sub in sub_exps(node):
            yield from walk_exps(sub)
        return
    if isinstance(node, Stm):
        for stm in stm_list(node) or ([node] if isinstance(node, Return) else []):
            if isinstance(stm, Return):
                yield from walk_exps(stm.value)
            elif isinstance(stm, ExpStm):
                yield from walk_exps(stm.exp)
            elif isinstance(stm, VarDecl):
                yield from walk_exps(stm.init)
            elif isinstance(stm, Assign):
                yield from walk_exps(stm.target)
                yield from walk_exps(stm.value)
            elif isinstance(stm, If):
                yield from walk_exps(stm.guard)
                yield from walk_exps(stm.then)
                yield from walk_exps(stm.orelse)
            elif isinstance(stm, Block):
                yield from walk_exps(stm.body)
            elif isinstance(stm, Switch):
                yield from walk_exps(stm.guard)
                for c in stm.cases:
                    yield from walk_exps(c.body)
                yield from walk_exps(stm.default)
            elif isinstance(stm, TryCatch):
                yield from walk_exps(stm.body)
                for h in stm.handlers:
                    yield from walk_exps(h.body)


def structurally_equal(a, b):
    """AST equality ignoring spans (round-trip checks)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(structurally_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, Node) or isinstance(a, SurfaceProgram):
        fields_a = {k: v for k, v in vars(a).items() if k != "span"}
        fields_b = {k: v for k, v in vars(b).items() if k != "span"}
        if fields_a.keys() != fields_b.keys():
            return False
        return all(structurally_equal(fields_a[k], fields_b[k]) for k in fields_a)
    return a == b
