"""Role-free local language: the projection target.

Mirrors the surface grammar without role annotations, plus the unit
singleton forms (``Unit.id`` and ``Unit.id(...)``) and the throw statement
generated as the default of selection switches. Nodes compare structurally,
which is what merging relies on. A call, ``new`` and method also carry the
slot of their method, and a class its method table, as the checker made
them (``checker.Checker.overrides``); equality, ``repr`` and the printer
leave them out, and text read back has none. The
annotations of expression and statement fields say which hold parts
(``LExp``, ``LStm``), alone or in lists and tuples: the rewrites of
``merging`` are compiled from them.
"""

from __future__ import annotations

from .record import field, record


@record
class LTE:
    name: str
    args: list = field(default_factory=list)


# ------------------------------------------------------------- expressions

class LExp:
    pass


@record
class LUnit(LExp):
    """The ``Unit.id`` atom."""


@record
class LUnitCall(LExp):
    """``Unit.id(args)``: evaluate the arguments, produce the unit value."""

    args: list[LExp]


@record
class LLit(LExp):
    value: object  # int | float | str | bool | None


@record
class LName(LExp):
    ident: str


@record
class LStaticName(LExp):
    """Projected class name used as a static scope."""

    name: str


@record
class LFieldAcc(LExp):
    scope: LExp
    name: str


@record
class LCall(LExp):
    scope: LExp  # None for unqualified calls
    type_args: list[LTE]
    name: str
    args: list[LExp]
    slot: int = field(default=None, compare=False, repr=False)  # its resolved method's


@record
class LNew(LExp):
    class_name: str
    type_args: list[LTE]
    args: list[LExp]
    slot: int = field(default=None, compare=False, repr=False)  # its resolved constructor's


@record
class LBinary(LExp):
    left: LExp
    op: str
    right: LExp


# -------------------------------------------------------------- statements

class LStm:
    pass


@record
class LNil(LStm):
    pass


@record
class LReturn(LStm):
    value: LExp  # optional


@record
class LThrow(LStm):
    message: str


@record
class LExpStm(LStm):
    exp: LExp
    cont: LStm


@record
class LVarDecl(LStm):
    te: LTE
    name: str
    init: LExp  # optional
    cont: LStm


@record
class LAssign(LStm):
    target: LExp
    op: str
    value: LExp
    cont: LStm


@record
class LIf(LStm):
    guard: LExp
    then: LStm
    orelse: LStm
    cont: LStm


@record
class LBlock(LStm):
    body: LStm
    cont: LStm


@record
class LSwitch(LStm):
    guard: LExp
    cases: list[tuple[object, LStm]]  # a label is a case name or a literal
    default: LStm  # optional
    cont: LStm


@record
class LTryCatch(LStm):
    body: LStm
    handlers: list[tuple[LTE, str, LStm]]  # (type, name, body)
    cont: LStm


# ------------------------------------------------------------ declarations

@record
class LAnnotation:
    name: str
    args: list  # (key, value) pairs


@record
class LFTP:
    name: str
    bounds: list  # LTEs


@record
class LParam:
    te: LTE
    name: str


@record
class LMethod:
    annotations: list
    modifiers: list
    ftps: list
    return_te: LTE  # None for constructors
    name: str
    params: list
    body: LStm  # None for signatures
    is_constructor: bool = False
    slot: int = field(default=None, compare=False, repr=False)  # its own


@record
class LField:
    annotations: list
    modifiers: list
    te: LTE
    name: str


@record
class LEnum:
    annotations: list
    modifiers: list
    name: str
    cases: list


@record
class LInterface:
    annotations: list
    modifiers: list
    name: str
    ftps: list
    extends: list
    methods: list


@record
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
    # The checker's method table: slot -> the own slot of the method it runs.
    table: dict = field(default=None, compare=False, repr=False)


@record
class LocalUnit:
    """One projected declaration plus its provenance."""

    generated_name: str
    source_name: str
    role: str
    decl: object  # LEnum | LInterface | LClass


@record
class LocalProgram:
    units: list
    # What the distributed evaluator works out once (``ProgramFacts``).
    facts: object = field(default=None, compare=False, repr=False)
    # Generated name -> the first unit of that name, built by the first
    # ``unit`` lookup, after which ``units`` stays as it is.
    by_name: dict = field(default=None, compare=False, repr=False)

    def unit(self, generated_name):
        if self.by_name is None:
            self.by_name = {}
            for u in self.units:
                self.by_name.setdefault(u.generated_name, u)
        return self.by_name.get(generated_name)


def stm_list(stm):
    out = []
    while stm is not None and not isinstance(stm, LNil):
        out.append(stm)
        stm = getattr(stm, "cont", None)
    return out


def link(stms):
    """Chains ``stms`` in order, setting each one's ``cont`` to the next, and
    returns the first; None for none. The last keeps the ``cont`` it has."""
    head = None
    for stm in reversed(stms):
        if head is not None:
            stm.cont = head
        head = stm
    return head
