"""Surface AST for role-annotated choreography sources.

Statements are continuation-structured: every statement except ``Nil`` and
``Return`` carries the rest of its block in ``cont``, mirroring the source
grammar. Nodes compare by identity (checker annotations are keyed by node),
and every node carries a span.
"""

from __future__ import annotations

from .record import field, fields, record
from .span import SourceFile, Span


@record(eq=False)
class Node:
    span: Span


# ------------------------------------------------------------ type exprs

@record(eq=False)
class TE(Node):
    """Type expression ``id[@(roles)][<TE...>]`` or ``void``."""

    name: str
    roles: list  # role identifier strings, possibly empty
    args: list  # nested TEs
    is_void: bool = False


# ------------------------------------------------------------ expressions

@record(eq=False)
class Exp(Node):
    pass


@record(eq=False)
class Literal(Exp):
    value: object  # int | float | str | bool | None
    roles: list  # one role normally; several for null@(..)


@record(eq=False)
class Name(Exp):
    """Variable, parameter, implicit field, or ``this``."""

    ident: str


@record(eq=False)
class StaticRef(Exp):
    """Class reference with role arguments, used as a scope: ``Choice@A``."""

    name: str
    roles: list


@record(eq=False)
class FieldAcc(Exp):
    scope: Exp  # Name | StaticRef | any expression
    name: str


@record(eq=False)
class Call(Exp):
    """Method invocation; ``scope`` is None for unqualified calls."""

    scope: Exp
    type_args: list  # TEs
    name: str
    args: list


@record(eq=False)
class New(Exp):
    class_name: str
    roles: list
    type_args: list
    args: list


@record(eq=False)
class Binary(Exp):
    left: Exp
    op: str
    right: Exp


# ------------------------------------------------------------- statements

@record(eq=False)
class Stm(Node):
    pass


@record(eq=False)
class Nil(Stm):
    pass


@record(eq=False)
class Return(Stm):
    value: Exp  # optional


@record(eq=False)
class Throw(Stm):
    """Only produced when reading back generated local units."""

    message: str


@record(eq=False)
class ExpStm(Stm):
    exp: Exp
    cont: Stm = None


@record(eq=False)
class VarDecl(Stm):
    te: TE
    name: str
    init: Exp  # optional
    cont: Stm = None


@record(eq=False)
class Assign(Stm):
    target: Exp
    op: str  # "=", "+=", ...
    value: Exp
    cont: Stm = None


@record(eq=False)
class If(Stm):
    guard: Exp
    then: Stm
    orelse: Stm  # Nil when no else branch
    cont: Stm = None


@record(eq=False)
class Block(Stm):
    body: Stm
    cont: Stm = None


@record(eq=False)
class SwitchCase(Node):
    label: object  # case identifier string, or Literal; None for default
    body: Stm

    def __iter__(self):
        """Unpacks as ``(label, body)``, as a local switch's case does."""
        return iter((self.label, self.body))


@record(eq=False)
class Switch(Stm):
    guard: Exp
    cases: list  # SwitchCase with label != None
    default: Stm  # optional
    cont: Stm = None


@record(eq=False)
class CatchClause(Node):
    te: TE
    name: str
    body: Stm

    def __iter__(self):
        """Unpacks as ``(te, name, body)``, as a local try's handler does."""
        return iter((self.te, self.name, self.body))


@record(eq=False)
class TryCatch(Stm):
    body: Stm
    handlers: list
    cont: Stm = None


# ------------------------------------------------------------ declarations

@record(eq=False)
class Annotation(Node):
    name: str
    args: list  # (key, literal value) pairs


@record(eq=False)
class FTP(Node):
    """Formal type parameter: ``T@(X,..) [extends TE & TE...]``."""

    name: str
    roles: list
    bounds: list


@record(eq=False)
class Param(Node):
    te: TE
    name: str


@record(eq=False)
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


@record(eq=False)
class FieldDecl(Node):
    annotations: list
    modifiers: list
    te: TE
    name: str

    def is_static(self):
        return "static" in self.modifiers


@record(eq=False)
class Decl(Node):
    annotations: list
    modifiers: list
    name: str
    roles: list


@record(eq=False)
class EnumDecl(Decl):
    cases: list = field(default_factory=list)


@record(eq=False)
class InterfaceDecl(Decl):
    ftps: list = field(default_factory=list)
    extends: list = field(default_factory=list)
    methods: list = field(default_factory=list)


@record(eq=False)
class ClassDecl(Decl):
    ftps: list = field(default_factory=list)
    extends: TE = None
    implements: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    constructors: list = field(default_factory=list)
    methods: list = field(default_factory=list)


@record(eq=False)
class SurfaceProgram:
    decls: list


# --------------------------------------------------------------- helpers

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
    return []


_FIELDS = {}  # class -> its fields that may hold nodes, last first; None if not a node


def _fields(cls):
    # Fields annotated ``str`` or ``bool`` hold no node: both ASTs postpone
    # annotations, so each ``f.type`` is the annotation's text.
    names = None
    if fields(cls) is not None and cls not in (Span, SourceFile):
        names = tuple(name for name, f in reversed(fields(cls).items())
                      if name != "span" and f.type not in ("str", "bool"))
    _FIELDS[cls] = names
    return names


def walk(node):
    """Yield every node of a surface or local tree, ``node`` first, in
    pre-order and source order: the record instances in its fields other
    than ``span``, and in the lists and tuples those hold. The walk keeps its
    own stack, so deep trees take no Python stack, and it reads a node's
    fields only after yielding the node, so the caller may replace them."""
    stack = [node]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is list or cls is tuple:
            stack.extend(reversed(item))
            continue
        try:
            names = _FIELDS[cls]
        except KeyError:
            names = _fields(cls)
        if names is not None:
            yield item
            for name in names:
                value = getattr(item, name)
                if type(value) is list:
                    # The lists of either tree hold one kind of item: a list
                    # of strings (roles, modifiers, enum cases) holds no node.
                    if value and type(value[0]) is not str:
                        stack.extend(reversed(value))
                elif value is not None:
                    stack.append(value)


def walk_exps(node):
    """Yield every expression node reachable from a statement or expression."""
    return (n for n in walk(node) if isinstance(n, Exp))


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
