"""Role-free local language: the projection target.

Mirrors the surface grammar without role annotations, plus the unit
singleton forms (``Unit.id`` and ``Unit.id(...)``) and the throw statement
generated as the default of selection switches. Nodes compare structurally,
which is what merging relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .surface import walk


@dataclass
class LTE:
    name: str
    args: list = field(default_factory=list)


# ------------------------------------------------------------- expressions

class LExp:
    pass


@dataclass
class LUnit(LExp):
    """The ``Unit.id`` atom."""


@dataclass
class LUnitCall(LExp):
    """``Unit.id(args)``: evaluate the arguments, produce the unit value."""

    args: list


@dataclass
class LLit(LExp):
    value: object  # int | float | str | bool | None


@dataclass
class LName(LExp):
    ident: str


@dataclass
class LStaticName(LExp):
    """Projected class name used as a static scope."""

    name: str


@dataclass
class LFieldAcc(LExp):
    scope: LExp
    name: str


@dataclass
class LCall(LExp):
    scope: LExp  # None for unqualified calls
    type_args: list
    name: str
    args: list


@dataclass
class LNew(LExp):
    class_name: str
    type_args: list
    args: list


@dataclass
class LBinary(LExp):
    left: LExp
    op: str
    right: LExp


# -------------------------------------------------------------- statements

class LStm:
    pass


@dataclass
class LNil(LStm):
    pass


@dataclass
class LReturn(LStm):
    value: LExp  # optional


@dataclass
class LThrow(LStm):
    message: str


@dataclass
class LExpStm(LStm):
    exp: LExp
    cont: LStm


@dataclass
class LVarDecl(LStm):
    te: LTE
    name: str
    init: LExp  # optional
    cont: LStm


@dataclass
class LAssign(LStm):
    target: LExp
    op: str
    value: LExp
    cont: LStm


@dataclass
class LIf(LStm):
    guard: LExp
    then: LStm
    orelse: LStm
    cont: LStm


@dataclass
class LBlock(LStm):
    body: LStm
    cont: LStm


@dataclass
class LSwitch(LStm):
    guard: LExp
    cases: list  # (label, LStm) pairs
    default: LStm  # optional
    cont: LStm


@dataclass
class LTryCatch(LStm):
    body: LStm
    handlers: list  # (LTE, name, LStm)
    cont: LStm


# ------------------------------------------------------------ declarations

@dataclass
class LAnnotation:
    name: str
    args: list  # (key, value) pairs


@dataclass
class LFTP:
    name: str
    bounds: list  # LTEs


@dataclass
class LParam:
    te: LTE
    name: str


@dataclass
class LMethod:
    annotations: list
    modifiers: list
    ftps: list
    return_te: LTE  # None for constructors
    name: str
    params: list
    body: LStm  # None for signatures
    is_constructor: bool = False


@dataclass
class LField:
    annotations: list
    modifiers: list
    te: LTE
    name: str


@dataclass
class LEnum:
    annotations: list
    modifiers: list
    name: str
    cases: list


@dataclass
class LInterface:
    annotations: list
    modifiers: list
    name: str
    ftps: list
    extends: list
    methods: list


@dataclass
class LClass:
    annotations: list
    modifiers: list
    name: str
    ftps: list
    extends: LTE  # optional
    implements: list
    fields: list
    constructors: list
    methods: list


@dataclass
class LocalUnit:
    """One projected declaration plus its provenance."""

    generated_name: str
    source_name: str
    role: str
    decl: object  # LEnum | LInterface | LClass


@dataclass
class LocalProgram:
    units: list
    # What the distributed evaluator works out once (``ProgramFacts``).
    facts: object = field(default=None, compare=False, repr=False)

    def unit(self, generated_name):
        for u in self.units:
            if u.generated_name == generated_name:
                return u
        return None


def stm_list(stm):
    out = []
    while stm is not None and not isinstance(stm, LNil):
        out.append(stm)
        stm = getattr(stm, "cont", None)
    return out


def concat_stm(a, b):
    """Append chain b behind chain a, non-destructively.

    Statements after a return or throw are unreachable and dropped.
    """
    import copy

    if a is None or isinstance(a, LNil):
        return b
    if isinstance(a, (LReturn, LThrow)):
        return a
    node = copy.copy(a)
    node.cont = concat_stm(getattr(a, "cont", None), b)
    return node


# Every node of a local declaration or statement tree, in pre-order.
walk_local = walk
