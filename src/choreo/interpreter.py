"""The evaluator core both evaluators share, and the global evaluator.

``Evaluator`` runs method bodies of either language: the checked surface
program for the oracle, a role's projected units for a worker
(``distributed.LocalInterpreter``). It holds the one statement loop, which
dispatches through ``DISPATCH``, the expression walkers and the frame; each
evaluator supplies its calls, its static fields and which of its calls may
run a method of the program, behind a few hooks. A method call is one
generator, run by ``runtime.drive``, so recursion takes no Python stack and
is bounded only by ``runtime.MAX_CALL_DEPTH``; an expression that calls no
method of the program evaluates with no generator.

The global evaluator (``GlobalInterpreter``) runs checked choreographies
directly. Values are not located; the per-role structure shows up in the
per-role console transcripts and in the observation function used by the
differential harness. Channels are passive: ``com`` returns its payload
relocated, ``select`` returns its label. Role-permuted instantiation
rebinds the formal roles of the constructed object, which is all the
mergesort-style role rotation needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import GeneratorType

from . import surface as S
from .builtins import Builtins, Console, PrintStreamV, binary_value
from .local import (
    LAssign, LBinary, LBlock, LCall, LExpStm, LFieldAcc, LIf, LLit, LName, LNew,
    LNil, LReturn, LStaticName, LSwitch, LThrow, LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .projector import generated_name
from .runtime import (
    UNIT, ChoreoRuntimeError, DeadlockTimeout, EnumV, ListV, drive, observe_value,
    observed_object,
)
from .types import TVar, spine

# Statement kinds.
EXP, VAR, ASSIGN, RETURN, IF, SWITCH, BLOCK, END, THROW = (
    "exp", "var", "assign", "return", "if", "switch", "block", "end", "throw")
# Expression kinds; a type is a class name used as a static scope.
NAME, LITERAL, UNIT_ATOM, TYPE, FIELD, CALL, NEW, BINARY, UNIT_CALL = (
    "name", "literal", "unit", "type", "field", "call", "new", "binary", "unit-call")

# Kind, the attribute holding the expression a statement evaluates first,
# then the classes of that kind in the surface and the local language.
_FORMS = [
    (EXP, "exp", S.ExpStm, LExpStm),
    (VAR, "init", S.VarDecl, LVarDecl),
    (ASSIGN, "value", S.Assign, LAssign),
    (RETURN, "value", S.Return, LReturn),
    (IF, "guard", S.If, LIf),
    (SWITCH, "guard", S.Switch, LSwitch),
    (BLOCK, None, S.Block, LBlock, S.TryCatch, LTryCatch),  # a try runs its body
    (END, None, S.Nil, LNil, type(None)),  # None ends a block
    (THROW, None, S.Throw, LThrow),
    (NAME, None, S.Name, LName),
    (LITERAL, None, S.Literal, LLit),
    (UNIT_ATOM, None, LUnit),
    (TYPE, None, S.StaticRef, LStaticName),
    (FIELD, None, S.FieldAcc, LFieldAcc),
    (CALL, None, S.Call, LCall),
    (NEW, None, S.New, LNew),
    (BINARY, None, S.Binary, LBinary),
    (UNIT_CALL, None, LUnitCall),
]
# Each statement and expression class of both languages -> (kind, the
# attribute holding the expression it evaluates first, or None).
DISPATCH = {cls: (kind, attr) for kind, attr, *classes in _FORMS for cls in classes}
KIND = {cls: kind for cls, (kind, _) in DISPATCH.items()}  # the kinds alone

OWN, DEEP = 1, 2  # see ``Evaluator.flag``
# The classes of the expressions that never call.
LEAVES = frozenset(cls for cls, kind in KIND.items() if kind in (NAME, LITERAL, UNIT_ATOM, TYPE))


class ProgramObject:
    """An object of a class of the program: the name of its class (a
    projected unit's, in a worker) and its fields."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name):
        self.class_name = class_name
        self.fields = {}


@dataclass(slots=True)
class Frame:
    """One activation: ``this``, one store of names, and the ``site`` the
    evaluator's hooks read: the role binding in the oracle, the unit name
    in a worker."""

    this: ProgramObject
    env: dict
    site: object


@dataclass
class ExecutionReport:
    returns: dict
    transcripts: dict
    duration: float
    status: str  # "ok" | "deadlock-timeout" | "error"
    error: str = None


def error_report(message):
    """The report of a run that could not start."""
    return ExecutionReport({}, {}, 0.0, "error", message)


class Evaluator(Builtins):
    """Runs method bodies, and is the evaluator's builtins. Its methods that
    make calls return the value of a builtin, or the generator of a method
    of the program (or of a wait on a channel), for their caller to run
    (see ``runtime.drive``); a builtin's callback runs at once, to the end.

    An evaluator sets ``flags`` (``id(expression)`` -> flag, kept by its
    program) and ``deadline`` (a ``time.monotonic()`` value, or None), and
    supplies these hooks:

    - ``call(frame, exp, args)``: the unqualified or static call ``exp``;
    - ``new(frame, exp, args)``: the ``new`` expression ``exp`` of a class
      of the program;
    - ``call_method(receiver, name, args)``: the method ``name`` of a value;
    - ``static_field(frame, scope, name)``: a field of the class ``scope``;
    - ``may_call(exp)``: whether the call or ``new`` ``exp`` itself may run
      a method of the program, or wait.
    """

    deadline = None

    def invoke(self, receiver, name, args):
        return self.now(self.call_method(receiver, name, args))

    @staticmethod
    def now(value):
        """``value``, or the value of the generator ``value`` run at once."""
        if type(value) is not GeneratorType:
            return value
        wait, value = drive([value])
        if wait is not None:
            raise ChoreoRuntimeError(f"{wait[0].claimant} {wait[0].operation(wait[1])} "
                                     f"inside a builtin's callback, which cannot wait")
        return value

    def flag(self, exp):
        """How ``exp`` calls methods of the program, or waits: not at all
        (0), only as a call or ``new`` whose operands do neither (``OWN``),
        or in an operand (``DEEP``). Kept in ``flags`` where not 0, with its
        operands'."""
        kind = KIND[type(exp)]
        if kind is CALL:
            operands = exp.args if exp.scope is None else exp.args + [exp.scope]
        elif kind is NEW or kind is UNIT_CALL:
            operands = exp.args
        elif kind is BINARY:
            operands = (exp.left, exp.right)
        elif kind is FIELD:
            operands = (exp.scope,)
        else:
            return 0
        deep = False
        for o in operands:
            if type(o) not in LEAVES and self.flag(o):
                deep = True
        own = not deep and (kind is CALL or kind is NEW) and self.may_call(exp)
        flag = DEEP if deep else OWN if own else 0
        if flag:
            self.flags[id(exp)] = flag
        return flag

    # ------------------------------------------------------------ statements

    def run(self, this, site, method, args):
        """One call of ``method`` (a method node of either language) on
        ``this`` (None for a static method), as a generator (see
        ``runtime.drive``); a constructor's value is ``this``. Nested blocks
        run on a list of continuations, and ``return`` returns from the
        generator."""
        frame = Frame(this, {p.name: a for p, a in zip(method.params, args)}, site)
        ctor = method.is_constructor
        deadline, flags, ev = self.deadline, self.flags, self.eval
        rest = []  # the continuations of the enclosing blocks, innermost last
        stm = method.body
        while True:
            kind, attr = DISPATCH[type(stm)]
            if kind is END:
                if not rest:
                    return this if ctor else UNIT
                stm = rest.pop()
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlockTimeout("deadline exceeded")
            if kind is BLOCK:
                rest.append(stm.cont)
                stm = stm.body
                continue
            if kind is THROW:
                raise ChoreoRuntimeError(stm.message)
            exp = getattr(stm, attr)
            if exp is None:
                value = UNIT
            else:
                flag = flags.get(id(exp))
                if flag is None:
                    flag = flags[id(exp)] = self.flag(exp)
                if not flag:
                    value = ev(frame, exp)
                elif flag == OWN:
                    value = self.apply(frame, exp, [ev(frame, a) for a in exp.args])
                    if type(value) is GeneratorType:
                        value = yield value
                else:
                    value = yield from self._eval_g(frame, exp, flags)
            if kind is EXP:
                stm = stm.cont
            elif kind is VAR:
                frame.env[stm.name] = value
                stm = stm.cont
            elif kind is RETURN:
                return this if ctor else value
            elif kind is IF:
                rest.append(stm.cont)
                stm = stm.then if value is True else stm.orelse
            elif kind is ASSIGN:
                if stm.op != "=":
                    value = binary_value(stm.op[:-1], ev(frame, stm.target), value)
                self.assign_to(frame, stm.target, value)
                stm = stm.cont
            else:  # SWITCH
                if not isinstance(value, EnumV):
                    raise ChoreoRuntimeError("switch guard must be an enumerated value")
                rest.append(stm.cont)
                stm = next((body for label, body in stm.cases if label == value.case),
                           stm.default)

    def assign_to(self, frame, target, value):
        kind = KIND[type(target)]
        if kind is NAME:
            if target.ident in frame.env:
                frame.env[target.ident] = value
                return
            if frame.this is not None:
                frame.this.fields[target.ident] = value
                return
            raise ChoreoRuntimeError(f"cannot assign unknown name '{target.ident}'")
        if kind is FIELD:
            scope = self.eval(frame, target.scope)
            if isinstance(scope, ProgramObject):
                scope.fields[target.name] = value
                return
        raise ChoreoRuntimeError("unsupported assignment target")

    # ----------------------------------------------------------- expressions

    def apply(self, frame, exp, args):
        """The call or ``new`` ``exp``, given its arguments: its value, or
        the generator of the method of the program it calls. Its receiver
        must call nothing."""
        if KIND[type(exp)] is NEW:
            hit, value = self.construct(exp.class_name, args)
            return value if hit else self.new(frame, exp, args)
        scope = exp.scope
        if scope is None or KIND[type(scope)] is TYPE:
            return self.call(frame, exp, args)
        return self.call_method(self.eval(frame, scope), exp.name, args)

    def eval(self, frame, exp):
        """The value of ``exp``; a method of the program that it calls runs
        at once, to the end, as a builtin's callback does."""
        kind = KIND[type(exp)]
        if kind is NAME:
            ident = exp.ident
            if ident in frame.env:
                return frame.env[ident]
            if ident == "this":
                return frame.this
            if frame.this is not None and ident in frame.this.fields:
                return frame.this.fields[ident]
            raise ChoreoRuntimeError(f"unbound name '{ident}'")
        if kind is LITERAL:
            return exp.value
        if kind is CALL or kind is NEW:
            value = self.apply(frame, exp, [self.eval(frame, a) for a in exp.args])
            return self.now(value) if type(value) is GeneratorType else value
        if kind is FIELD:
            if KIND[type(exp.scope)] is TYPE:
                return self.static_field(frame, exp.scope, exp.name)
            return self.field_of(self.eval(frame, exp.scope), exp.name)
        if kind is BINARY:
            left, op = self.eval(frame, exp.left), exp.op
            if (op == "&&" or op == "||") and (left is True or left is False):
                return left if left is (op == "||") else self.eval(frame, exp.right)
            return binary_value(op, left, self.eval(frame, exp.right))
        if kind is UNIT_ATOM:
            return UNIT
        if kind is UNIT_CALL:
            for a in exp.args:
                self.eval(frame, a)
            return UNIT
        if kind is TYPE:
            raise ChoreoRuntimeError(f"'{exp.name}' is a type, not a value")
        raise ChoreoRuntimeError(f"cannot evaluate {exp!r}")

    def _eval_g(self, frame, exp, flags):
        """``eval`` of an expression that calls a method of the program, or
        waits, as a generator (see ``runtime.drive``); ``flags`` holds those
        of its operands."""
        ev, ev_g = self.eval, self._eval_g
        kind = KIND[type(exp)]
        if kind is BINARY:
            left, right, op = exp.left, exp.right, exp.op
            left = (yield from ev_g(frame, left, flags)) if flags.get(id(left)) else ev(frame, left)
            logical = (op == "&&" or op == "||") and (left is True or left is False)
            if logical and left is (op == "||"):
                return left
            right = (yield from ev_g(frame, right, flags)) if flags.get(id(right)) else ev(frame, right)
            return right if logical else binary_value(op, left, right)
        if kind is FIELD:
            return self.field_of((yield from ev_g(frame, exp.scope, flags)), exp.name)
        args = []
        for a in exp.args:
            args.append((yield from ev_g(frame, a, flags)) if flags.get(id(a)) else ev(frame, a))
        if kind is UNIT_CALL:
            return UNIT
        if kind is CALL and flags.get(id(exp.scope)):
            value = self.call_method((yield from ev_g(frame, exp.scope, flags)), exp.name, args)
        else:
            value = self.apply(frame, exp, args)
        if type(value) is GeneratorType:
            value = yield value
        return value

    @staticmethod
    def field_of(scope, name):
        if isinstance(scope, ProgramObject):
            if name in scope.fields:
                return scope.fields[name]
            raise ChoreoRuntimeError(
                f"object of '{scope.class_name}' has no field '{name}' yet")
        raise ChoreoRuntimeError(f"no field '{name}' on {scope!r}")


# ---------------------------------------------------------------- the oracle

class GlobalChannel:
    """Passive channel value: com relocates, select echoes."""

    def __init__(self, key="<anonymous>"):
        self.key = key

    def com(self, message=UNIT):
        return message

    def select(self, label=UNIT):
        return label


class GlobalObject(ProgramObject):
    """An object of the oracle, and its role binding: formal role name ->
    actual role name."""

    __slots__ = ("info", "binding")

    def __init__(self, info, binding):
        super().__init__(info.name)
        self.info = info
        self.binding = binding


class OracleFacts:
    """Dynamic dispatch in one checked program, worked out on first use, and
    the oracle's flags. Kept as ``CheckedProgram.facts``; it holds the
    program's tables, not the program."""

    def __init__(self, checked):
        self.closure = checked._checker.supertype_closure
        self._methods = {}  # (declaration, name, arity) -> (MethodInfo, supertype, subst)
        # (name, arity) of the methods with a body outside the prelude: a
        # call that names none of these runs no method of the program.
        self.method_keys = {(mi.name, len(mi.node.params)) for info in checked._checker.own
                            for mi in info.methods if mi.node.body is not None}
        self.flags = {}  # id(expression) -> flag; the program keeps each alive

    def method(self, info, name, arity):
        """The method with a body that dynamic dispatch finds for
        ``name/arity`` on ``info``, with the ``supertype_closure`` entry
        that declares it; Nones if none."""
        key = (info.name, name, arity)
        found = self._methods.get(key)
        if found is None:
            found = self._methods[key] = next(
                ((mi, sup, submap) for sup, submap in self.closure(info) for mi in sup.methods
                 if mi.name == name and len(mi.node.params) == arity
                 and mi.node.body is not None), (None, None, None))
        return found


class GlobalInterpreter(Evaluator):
    """Runs a checked program. A frame's site is its role binding."""

    def __init__(self, checked):
        super().__init__(Console())
        self.checked = checked
        self.table = checked.table
        self.resolved = checked.resolved
        if checked.facts is None:
            checked.facts = OracleFacts(checked)
        self.facts = checked.facts
        self.flags = self.facts.flags
        self.channels = {}

    def claim_channel(self, key):
        if key not in self.channels:
            self.channels[key] = GlobalChannel(key)
        return self.channels[key]

    def actual_roles(self, te, binding):
        """Actual roles of a denoted type expression under a role binding."""
        return {binding[r] for r in self.checked.type_roles(te) if r in binding}

    # ------------------------------------------------------------ calls

    def may_call(self, exp):
        if type(exp) is S.New:
            res = self.resolved.get(id(exp))
            return res is not None and res[1].node.body is not None
        return exp.scope is None or (exp.name, len(exp.args)) in self.facts.method_keys

    def instantiate(self, info, actual_roles, ctor_mi, args):
        """A new object of ``info``; a generator whose value is the object
        when its constructor has a body."""
        binding = {v.name: a for v, a in zip(info.role_vars, actual_roles)}
        obj = GlobalObject(info, binding)
        if ctor_mi is not None and ctor_mi.node.body is not None:
            return self.run(obj, binding, ctor_mi.node, args)
        return obj

    def call_static(self, mi, binding, args):
        if mi.node.body is None:
            raise ChoreoRuntimeError(f"builtin static '{mi.owner.name}.{mi.name}' is "
                                     f"not implemented by the runtime")
        return self.run(None, binding, mi.node, args)

    def invoke_object(self, obj, name, arity, args):
        mi, sup, submap = self.facts.method(obj.info, name, arity)
        if mi is None:
            raise ChoreoRuntimeError(f"'{obj.info.name}' has no method '{name}/{arity}'")
        return self.run(obj, self.super_binding(sup, submap, obj.binding), mi.node, args)

    @staticmethod
    def super_binding(sup, submap, binding):
        """The role binding of a ``supertype_closure`` entry's members, on an
        object bound by ``binding``."""
        if not submap:
            return binding
        out = {}
        for formal in sup.role_vars:
            arg = submap.get(formal.uid, formal)
            if isinstance(arg, TVar):
                out[formal.name] = binding.get(arg.name, arg.name)
        return out

    def call_method(self, receiver, name, args):
        if isinstance(receiver, GlobalObject):
            return self.invoke_object(receiver, name, len(args), args)
        if type(receiver) is GlobalChannel and name in ("com", "select"):
            return getattr(receiver, name)(args[0] if args else UNIT)
        hit, value = self.try_call_method(receiver, name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")

    def call(self, frame, exp, args):
        scope, resolved = exp.scope, self.resolved.get(id(exp))
        mi = resolved[1] if resolved else None
        if scope is None:
            if mi is None:
                raise ChoreoRuntimeError(f"unresolved call '{exp.name}'")
            if exp.name == "super":
                return self.run(frame.this, self._super_ctor_binding(frame, mi), mi.node, args)
            if mi.is_static:
                return self.call_static(mi, frame.site, args)
            return self.invoke_object(frame.this, exp.name, len(args), args)
        hit, value = self.try_static_call(scope.name, exp.name, args)
        if hit:
            return value
        info = self.table.get(scope.name)
        if info is None or mi is None:
            raise ChoreoRuntimeError(f"unknown static call '{scope.name}.{exp.name}'")
        binding = {v.name: frame.site[r] for v, r in zip(info.role_vars, scope.roles)}
        return self.call_static(mi, binding, args)

    def _super_ctor_binding(self, frame, mi):
        """The role binding of the superclass constructor ``mi`` on
        ``frame.this``: its formal roles, bound as the ``extends`` clause
        passes them."""
        _, targs = spine(self.checked.te_type(frame.this.info.node.extends))
        passed = [a for a in targs if isinstance(a, TVar) and a.role]
        return {formal.name: frame.this.binding.get(a.name, a.name)
                for formal, a in zip(mi.owner.role_vars, passed)}

    def new(self, frame, exp, args):
        info = self.table.get(exp.class_name)
        if info is None:
            raise ChoreoRuntimeError(f"unknown class '{exp.class_name}'")
        resolved = self.resolved.get(id(exp))
        return self.instantiate(info, [frame.site[r] for r in exp.roles],
                                resolved[1] if resolved else None, args)

    def static_field(self, frame, scope, name):
        info = self.table.get(scope.name)
        if info is not None and info.is_enum and name in info.node.cases:
            return EnumV(info.name, name)
        if scope.name == "System" and name == "out":
            return PrintStreamV(self.console, frame.site[scope.roles[0]])
        raise ChoreoRuntimeError(f"unknown static field '{scope.name}.{name}'")

    # ----------------------------------------------------------- observation

    def observe(self, value, role):
        """Role view of a value, comparable with a worker's observation."""
        return observe_value(value, lambda v: self._observe_object(v, role))

    def _observe_object(self, value, role):
        if not isinstance(value, GlobalObject):
            return None
        info = value.info

        def again(v):
            return self.observe(v, role)

        if len(info.role_names) == 1:
            # Single-role objects relocate wholesale over channels; their
            # content is visible wherever the value ends up.
            return observed_object(info.name, value.fields.items(), again)
        formal = next((f for f, actual in value.binding.items() if actual == role), None)
        if formal is None:
            return "unit"
        fields = []
        for sup, submap in self.checked._checker.supertype_closure(info):
            sup_binding = self.super_binding(sup, submap, value.binding)
            fields += [(f.name, value.fields[f.name]) for f in sup.fields()
                       if role in self.actual_roles(f.te, sup_binding)
                       and f.name in value.fields]
        return observed_object(generated_name(info.name, info.role_names, formal),
                               fields, again)


# --------------------------------------------------------------- entry point

def eval_global(checked, entry_class, entry_method, args_by_role=None,
                channels=None):
    """Run a choreography directly; returns an ExecutionReport.

    ``args_by_role`` lists the entry method's argument values per role in
    parameter order; ``channels`` maps constructor and entry parameter names
    to registry keys (every channel-typed constructor parameter must
    appear). ``wire_arguments`` says which argument each parameter gets.
    """
    channels = channels or {}
    info = checked.decl_info(entry_class)
    entry_mi = next((mi for mi in info.methods if mi.name == entry_method),
                    None) if info is not None else None
    if entry_mi is None:
        return error_report(f"unknown entry class '{entry_class}'" if info is None
                            else f"'{entry_class}' has no method '{entry_method}'")
    interp = GlobalInterpreter(checked)
    binding = {r: r for r in info.role_names}
    started = time.perf_counter()

    def located(params):
        return [(p.name, interp.actual_roles(p.te, binding)) for p in params]

    try:
        receiver = None
        if not entry_mi.is_static:
            ctor = info.constructors[0]
            ctor_args = wire_arguments(located(ctor.node.params), channels,
                                       interp.claim_channel, owner=entry_class)
            receiver = interp.now(interp.instantiate(info, info.role_names, ctor, ctor_args))
        pending = {r: list(vs) for r, vs in (args_by_role or {}).items()}
        call_args = wire_arguments(located(entry_mi.node.params), channels,
                                   interp.claim_channel, pending)

        if entry_mi.is_static:
            result = interp.now(interp.call_static(entry_mi, binding, call_args))
        else:
            result = interp.now(interp.run(receiver, receiver.binding, entry_mi.node, call_args))
        ret_roles = interp.actual_roles(entry_mi.node.return_te, binding)
        returns = {role: interp.observe(result, role) if role in ret_roles else "unit"
                   for role in info.role_names}
        status, error = "ok", None
    except Exception as e:  # a library caller gets a report, never a traceback
        returns, status = {}, "error"
        error = str(e) if isinstance(e, ChoreoRuntimeError) else f"{type(e).__name__}: {e}"
    duration = time.perf_counter() - started
    return ExecutionReport(returns, interp.console.transcripts(), duration, status, error)


def decode_value(raw):
    """JSON manifest literal -> runtime value."""
    if isinstance(raw, list):
        return ListV([decode_value(v) for v in raw])
    return raw


def wire_arguments(params, channels, claim, pending=None, owner=None):
    """Entry or constructor arguments, by the one rule of both evaluators.

    ``params`` pairs each parameter's name with the roles its value lives at
    in the evaluator's view. A parameter that lives at no role gets unit; one
    named in ``channels`` gets the channel ``claim`` returns for its key; one
    that lives at a single role takes that role's next manifest value from
    ``pending`` (role -> list, consumed); any other gets unit. Constructors
    take no manifest values (``pending`` None): each of their parameters
    that lives at some role must be a channel.
    """
    args = []
    for name, roles in params:
        if not roles:
            args.append(UNIT)
        elif name in channels:
            args.append(claim(channels[name]))
        elif pending is None:
            raise ChoreoRuntimeError(
                f"constructor parameter '{name}' of '{owner}' has no channel wiring")
        else:
            values = pending.get(next(iter(roles))) if len(roles) == 1 else None
            args.append(decode_value(values.pop(0)) if values else UNIT)
    return args
