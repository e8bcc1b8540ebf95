"""The evaluator core both evaluators share, and the global evaluator.

``Evaluator`` runs method bodies of either language: the checked surface
program for the oracle, a role's projected units for a worker
(``distributed.LocalInterpreter``). A method's body is compiled at its first
call in a program, in the manner of Feeley and Lapalme's closure
generation: each statement becomes a ``Step`` that holds its expression's
Python closure and the step that follows it, compiled last to first, so a
block, branch or switch arm ends in the step after its statement (a branch
or arm is compiled when first reached), and one loop runs the steps.
``COMPILE`` holds the compile function of every statement and expression
class of both languages. The compiled bodies are kept in the program's
facts, so every evaluator of a program shares one compile. Each evaluator
binds every call, ``new`` and static field when its body compiles, behind
its hooks, and a worker's ``com`` or ``select`` by its direction. A call
runs the method the checker resolved it to (JLS 15.12.4): at every call
it looks the slot of that method up in the method table of its receiver's
class (``Facts``), as the JVM's ``invokevirtual`` does, and keeps no method
of its own; a call with no slot finds its method by name and arity
(``Evaluator.method``). A method call is one generator, run by
``runtime.drive``, so recursion takes no Python stack and is bounded only
by ``runtime.MAX_CALL_DEPTH``; an expression that calls no method of the
program evaluates with no generator.

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
from types import GeneratorType

from . import surface as S
from .builtins import (
    CONSTRUCTORS, NO_METHODS, Builtins, Console, PrintStreamV, binary_value, builtin_static,
    method_table, not_null,
)
from .local import (
    LAssign, LBinary, LBlock, LCall, LExpStm, LFieldAcc, LIf, LLit, LName, LNew,
    LNil, LReturn, LStaticName, LSwitch, LThrow, LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .projector import generated_name
from .record import field, record
from .runtime import (
    UNIT, ChoreoRuntimeError, DeadlockTimeout, EnumV, ListV, drive, observe_value,
    observed_object,
)
from .types import TVar

# Step kinds; an assignment and a ``throw`` run as expression statements.
EXP, VAR, RETURN, IF, SWITCH = "exp", "var", "return", "if", "switch"
# How a compiled expression calls methods of the program, or waits (see
# ``COMPILE``).
OWN, DEEP = 1, 2
TYPES = (S.StaticRef, LStaticName)  # a class name used as a static scope


class ProgramObject:
    """An object of a class of the program: the name of its class (a
    projected unit's, in a worker) and its fields."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name):
        self.class_name = class_name
        self.fields = {}


@record
class Frame:
    """One activation: ``this``, one store of names, and the ``site`` that
    the calls its evaluator binds read: the role binding in the oracle, the
    unit name in a worker."""

    __slots__ = ("this", "env", "site")
    this: ProgramObject
    env: dict
    site: object


class Facts:
    """What every evaluator of one program shares, kept as its ``facts``:
    ``tables``, each class's method table by class name (slot -> what a
    call of that slot runs on an object of the class: ``(method node,
    whether it is static)`` in a worker, the checker's ``(MethodInfo,
    subst)`` in the oracle), the one place where a call finds its method, and
    ``slots``, those they hold (a call of any other runs no method of
    the program); and the compiled bodies, names and receiver tables of its
    calls. It holds no reference to the program, so the two make no cycle."""

    def __init__(self, tables):
        self.tables = tables
        self.slots = {slot for table in tables.values() for slot in table}
        self.bodies = {}  # id(method) -> (its frame's store builder, its first Step)
        self.names = {}  # identifier -> its compiled name
        self.receivers = {}  # slot -> its receiver table (``Evaluator.receivers``)


@record
class ExecutionReport:
    returns: dict
    transcripts: dict
    duration: float
    status: str  # "ok" | "deadlock-timeout" | "error"
    error: str = None
    # A distributed run's ``WorkerOutcome``s by role, the root cause first.
    outcomes: dict = field(default=None, compare=False, repr=False)


def error_report(message, outcomes=None):
    """The report of a run that could not start (``outcomes`` {} for a
    distributed one)."""
    return ExecutionReport({}, {}, 0.0, "error", message, outcomes)


class Evaluator(Builtins):
    """Runs method bodies, and is the evaluator's builtins. Its methods that
    make calls return the value of a builtin, or the generator of a method
    of the program (or of a wait on a channel), for their caller to run
    (see ``runtime.drive``); a builtin's callback runs at once, to the end.

    An evaluator sets ``facts``, the ``Facts`` its program keeps, and
    ``deadline`` (a ``time.monotonic()`` value, or None). Its class has one
    ``METHODS`` table (``builtins.method_table``, with the oracle's
    channels), which a call on a receiver binds when compiled; such a call
    may run a method of the program if its slot is in ``facts.slots`` (or
    it has none), and then binds its ``receivers`` table instead. A
    receiver that the bound table has no entry for, and a builtin's
    callback, take ``call_method``. ``OBJECT`` is the class of its objects
    of the program. ``CHANNELS`` maps the name of a worker's channel
    operation, which may wait, to its ``(send, receive)``, each
    ``f(evaluator, receiver, message, slot)``: a call of it with one
    argument binds the receive if that argument is ``Unit.id``, else the
    send, and is flagged ``OWN``. It supplies these hooks:

    - ``slot(exp)``: the slot of the method that the checker resolved the
      call ``exp`` to, None if it has none;
    - ``bind(exp)``: the unqualified or static call, or the ``new``, ``exp``
      as ``(flag, f(evaluator, frame, args))``; the flag is ``OWN`` if ``f``
      may run a method of the program, or wait, else 0;
    - ``bind_static(scope, name)``: the static field ``name`` of the class
      ``scope``, as ``f(evaluator, frame)``;
    - ``dispatcher(name, arity, slot)``: the call of ``slot``, a method
      ``name/arity``, on an object of the program, as ``f(evaluator, obj,
      args)``, which reads the slot's entry in the table of ``obj``'s class
      at every call, and takes ``method`` when the table has none;
    - ``declared(class_name)``: the methods that the class declares, then
      those of each type it inherits from, one list per type, each as
      ``(node, what a call of it runs)``, in the form of a table's entry.

    What ``bind`` and ``bind_static`` return for an unknown class, method or
    field raises when it runs (see ``raising``). It holds no evaluator, nor
    anything else of one run: every run of the program shares it.
    """

    deadline = None
    CHANNELS = {}
    OBJECT = ProgramObject

    def invoke(self, receiver, name, args):
        return self.now(self.call_method(receiver, name, args))

    def call_method(self, receiver, name, args, slot=None):
        """The method ``name`` of ``receiver`` by the ``receivers`` table of
        ``slot``: a method of the program, or the ``METHODS`` entry for its
        type."""
        fn = self.receivers(name, len(args), slot).get(type(receiver))
        if fn is None:
            raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")
        return fn(self, receiver, args)

    def method(self, class_name, name, arity, slot):
        """What a call of ``slot``, a method ``name/arity``, runs on an
        object of ``class_name``, as an entry of a method table (see
        ``Facts``): the slot's entry in the class's table. A call with no
        slot, read back from text or a builtin's callback, runs the method of
        its name and arity that the nearest class to declare one with a body
        declares, found again at every call, and is reported when that class
        declares several."""
        if slot is not None:
            method = self.facts.tables.get(class_name, NO_METHODS).get(slot)
            if method is not None:
                return method
        else:
            for methods in self.declared(class_name):
                named = [found for m, found in methods
                         if m.name == name and len(m.params) == arity and m.body is not None]
                if len(named) == 1:
                    return named[0]
                if named:
                    raise ChoreoRuntimeError(
                        f"'{class_name}' has {len(named)} methods '{name}/{arity}'")
        raise ChoreoRuntimeError(f"'{class_name}' has no method '{name}/{arity}'")

    def receivers(self, name, arity, slot):
        """The receiver table of the calls of ``slot`` (of ``name/arity``
        when None) on a receiver in the program: its name's ``METHODS``
        entry, and the ``dispatcher`` for objects of the program, made once
        per program and kept in its facts."""
        key = (name, arity) if slot is None else slot
        table = self.facts.receivers.get(key)
        if table is None:
            table = self.facts.receivers[key] = {**self.METHODS.get(name, NO_METHODS),
                                                 self.OBJECT: self.dispatcher(name, arity, slot)}
        return table

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

    def run(self, this, site, method, args):
        """One call of ``method`` (a method node of either language) on
        ``this`` (None for a static method), as a generator (see
        ``runtime.drive``); a constructor's value is ``this``. A method's
        body is compiled at its first call in a program, into
        ``facts.bodies`` with the builder of its frame's names (see
        ``_env``). The language has no loops, so a run that diverges makes
        calls without end: the deadline is checked at every call."""
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlockTimeout("deadline exceeded")
        body = self.facts.bodies.get(id(method))
        if body is None:
            body = self.facts.bodies[id(method)] = (
                _env([p.name for p in method.params]), self.compile_stm(method.body))
        return self._run_steps(Frame(this, body[0](args), site), method.is_constructor, body[1])

    def _run_steps(self, frame, ctor, step):
        """The statement loop, on the steps of a body (see ``Step``);
        ``return`` returns from the generator."""
        while True:
            if step.deep:
                value = yield from step.fn(self, frame)
            else:
                value = step.fn(self, frame)
                if type(value) is GeneratorType:
                    value = yield value
            kind = step.kind
            if kind is EXP:
                step = step.cont
            elif kind is VAR:
                frame.env[step.stm.name] = value
                step = step.cont
            elif kind is RETURN:
                return frame.this if ctor else value
            elif kind is IF:
                if value is True:
                    step = step.then or self._link(step, "then")
                elif value is None:
                    raise ChoreoRuntimeError("NullPointerException: null guard of 'if'")
                else:
                    step = step.orelse or self._link(step, "orelse")
            elif isinstance(value, EnumV):  # SWITCH
                step = step.arms.get(value.case) or self._arm(step, value.case)
            else:
                raise ChoreoRuntimeError("switch guard must be an enumerated value")

    @staticmethod
    def field_of(scope, name):
        if isinstance(scope, ProgramObject):
            if name in scope.fields:
                return scope.fields[name]
            raise ChoreoRuntimeError(
                f"object of '{scope.class_name}' has no field '{name}' yet")
        raise ChoreoRuntimeError(f"no field '{name}' on {scope!r}")

    # -------------------------------------------------------------- compiling

    def _link(self, step, attr):
        """Compiles the branch in the field ``attr`` of ``step``'s node, which
        ends in the step's ``cont``, into the step's slot of that name."""
        compiled = self.compile_stm(getattr(step.stm, attr), step.cont)
        setattr(step, attr, compiled)
        return compiled

    def _arm(self, step, case):
        """Compiles the arm that the switch ``step`` takes on the label
        ``case``, which ends in the step's ``cont``, and keeps it by label."""
        body = next((b for label, b in step.stm.cases if label == case), step.stm.default)
        step.arms[case] = compiled = self.compile_stm(body, step.cont)
        return compiled

    def compile_stm(self, stm, cont=None):
        """The statements from ``stm`` on to the end of its block, or to its
        first ``return`` or ``throw``, as ``Step``s linked by ``cont``, the
        last going on to ``cont`` (``END_STEP``, a body's end, if None).
        They compile last to first, so each is built knowing the step that
        follows it; branches and arms are compiled when first reached."""
        chain = []
        while stm is not None:
            chain.append(stm)
            stm = getattr(stm, "cont", None)  # a return, throw or nil has none
        step = cont or END_STEP
        for stm in reversed(chain):
            step = COMPILE[type(stm)](self, stm, step)
        return step


# ------------------------------------------- compiled statements and closures

class Step:
    """A statement compiled for ``Evaluator._run_steps``: its kind and node;
    its expression's closure ``fn`` (a generator function when ``deep``, see
    ``COMPILE``); the step ``cont`` that follows the statement; and the
    first steps of its branches, None until first reached, in the slots named
    as the node's fields that hold them, or, for a switch, in ``arms`` by
    label. A block or try makes no step, and a ``throw`` is an ``EXP`` step
    whose closure raises."""

    __slots__ = ("kind", "stm", "deep", "fn", "cont", "then", "orelse", "arms")

    def __init__(self, kind, stm, cont, flag=0, fn=None):
        self.kind, self.stm, self.cont, self.deep, self.fn = kind, stm, cont, flag == DEEP, fn
        self.then = self.orelse = None
        self.arms = {} if kind is SWITCH else None


def _statement(kind, attr):
    """The compile function of the statements of ``kind`` that first
    evaluate the expression in their field ``attr``."""
    def compile_statement(ev, stm, cont):
        exp = getattr(stm, attr)
        if exp is None:
            return Step(kind, stm, cont, 0, _unit)
        flag, fn = COMPILE[type(exp)](ev, exp)
        return Step(kind, stm, cont, flag, fn)
    return compile_statement


def _c_throw(ev, stm, cont):
    return Step(EXP, stm, cont, 0, raising(stm.message))


def _c_assign(ev, stm, cont):
    """An assignment, in Java's order: a field target's receiver, then, for
    ``op=``, the target's value, then the right operand, then the store."""
    target, op, value = stm.target, stm.op[:-1], stm.value
    value = COMPILE[type(value)](ev, value)
    if type(target) is S.FieldAcc or type(target) is LFieldAcc:
        scope, name = target.scope, target.name
        receiver = COMPILE[type(scope)](ev, scope)
        if not (op or receiver[0] or value[0]):
            return Step(EXP, stm, cont, 0, lambda ev, fr, r=receiver[1], n=name, v=value[1]:
                        _set_field(r(ev, fr), n, v(ev, fr)))
        read = lambda ev, obj, n=name: ev.field_of(obj, n)
        store = lambda obj, v, n=name: _set_field(obj, n, v)
    elif type(target) is S.Name or type(target) is LName:  # its receiver is the frame
        ident = target.ident
        if not (op or value[0]):
            return Step(EXP, stm, cont, 0, lambda ev, fr, i=ident, v=value[1]:
                        _set_name(fr, i, v(ev, fr)))
        receiver, read = (0, _frame), _c_name(ev, target)[1]
        store = lambda fr, v, i=ident: _set_name(fr, i, v)
    else:
        return Step(EXP, stm, cont, 0, _unsupported_target)
    return Step(EXP, stm, cont, DEEP, _assign_g(op, receiver, read, store, value))


def _c_name(ev, exp):
    names = ev.facts.names
    name = names.get(exp.ident)
    if name is None:
        name = names[exp.ident] = _name(exp.ident)
    return 0, name


def _c_literal(ev, exp):
    return 0, lambda ev, fr, value=exp.value: value


def _c_type(ev, exp):
    return 0, raising(f"'{exp.name}' is a type, not a value")


def _c_field(ev, exp):
    scope, name = exp.scope, exp.name
    if type(scope) in TYPES:
        return 0, ev.bind_static(scope, name)
    operand = COMPILE[type(scope)](ev, scope)
    if operand[0]:
        return DEEP, _call_g([operand], lambda ev, fr, values, n=name: ev.field_of(values[0], n))
    return 0, lambda ev, fr, s=operand[1], n=name: ev.field_of(s(ev, fr), n)


def _c_binary(ev, exp):
    left, right = exp.left, exp.right
    left, right = COMPILE[type(left)](ev, left), COMPILE[type(right)](ev, right)
    if left[0] or right[0]:
        return DEEP, _binary_g(exp.op, left, right)
    return 0, _binary(exp.op, left[1], right[1])


def _c_call(ev, exp):
    """A call; its receiver runs before its arguments (JLS 15.12.4). A
    ``CHANNELS`` operation with one argument binds its send, or its receive
    if that argument is ``Unit.id``; any other call on a receiver binds its
    name's ``METHODS`` entry (receiver type -> fn), or, if it may run a
    method of the program, the program's ``receivers`` table of its slot."""
    scope, name = exp.scope, exp.name
    if scope is None or type(scope) in TYPES:
        return _c_bound(ev, exp)
    receiver = COMPILE[type(scope)](ev, scope)
    args, deep = _c_arguments(ev, exp.args)
    slot = ev.slot(exp)
    ops = ev.CHANNELS.get(name) if len(args) == 1 else None
    if ops is not None:
        op = ops[type(exp.args[0]) is LUnit]
        if deep or receiver[0]:
            return DEEP, _call_g([receiver, *args],
                                 lambda ev, fr, values, op=op, s=slot: op(ev, *values, s))
        return OWN, lambda ev, fr, r=receiver[1], m=args[0][1], op=op, s=slot: op(
            ev, r(ev, fr), m(ev, fr), s)
    table, flag = ev.METHODS.get(name, NO_METHODS), 0
    if slot is None or slot in ev.facts.slots:
        table, flag = ev.receivers(name, len(args), slot), OWN
    if deep or receiver[0]:
        return DEEP, _call_g([receiver, *args], _method(table, name, slot))
    r = receiver[1]
    if not args:
        def method_call(ev, fr, r=r, t=table, n=name, s=slot):
            obj = r(ev, fr)
            fn = t.get(type(obj))
            return ev.call_method(obj, n, [], s) if fn is None else fn(ev, obj, [])
    elif len(args) == 1:
        def method_call(ev, fr, r=r, t=table, n=name, s=slot, a=args[0][1]):
            obj = r(ev, fr)
            fn = t.get(type(obj))
            return (ev.call_method(obj, n, [a(ev, fr)], s) if fn is None
                    else fn(ev, obj, [a(ev, fr)]))
    elif len(args) == 2:
        def method_call(ev, fr, r=r, t=table, n=name, s=slot, a=args[0][1], b=args[1][1]):
            obj = r(ev, fr)
            fn = t.get(type(obj))
            values = [a(ev, fr), b(ev, fr)]
            return ev.call_method(obj, n, values, s) if fn is None else fn(ev, obj, values)
    else:
        def method_call(ev, fr, r=r, t=table, n=name, s=slot, a=_arguments(args)):
            obj = r(ev, fr)
            fn = t.get(type(obj))
            return ev.call_method(obj, n, a(ev, fr), s) if fn is None else fn(ev, obj, a(ev, fr))
    return flag, method_call


def _c_bound(ev, exp):
    """An unqualified or static call, or a ``new``: what ``bind`` binds it
    to, on its arguments."""
    args, deep = _c_arguments(ev, exp.args)
    flag, fn = ev.bind(exp)
    if deep:
        return DEEP, _call_g(args, fn)
    if not args:
        return flag, lambda ev, fr, f=fn: f(ev, fr, [])
    if len(args) == 1:
        return flag, lambda ev, fr, f=fn, a=args[0][1]: f(ev, fr, [a(ev, fr)])
    if len(args) == 2:
        return flag, lambda ev, fr, f=fn, a=args[0][1], b=args[1][1]: f(
            ev, fr, [a(ev, fr), b(ev, fr)])
    return flag, lambda ev, fr, f=fn, a=_arguments(args): f(ev, fr, a(ev, fr))


def _c_unit_call(ev, exp):
    args, deep = _c_arguments(ev, exp.args)
    if deep:
        return DEEP, _call_g(args, lambda ev, fr, values: UNIT)

    def unit_call(ev, fr, fns=tuple(f for _, f in args)):
        for f in fns:
            f(ev, fr)
        return UNIT
    return 0, unit_call


def _c_arguments(ev, exps):
    """The compiled arguments ``exps``, and whether any has a flag."""
    args, deep = [], 0
    for a in exps:
        arg = COMPILE[type(a)](ev, a)
        deep = deep or arg[0]
        args.append(arg)
    return args, deep


# Closures of expressions, each ``f(evaluator, frame)`` (see ``COMPILE``).
# They bind what they use as default arguments, not as free variables: a
# default takes no cell, so a compiled body keeps fewer objects for the
# cyclic collector to trace, and compiles faster.

def _unit(ev, fr):
    return UNIT


def raising(message):
    """A compiled closure (see ``COMPILE``) or one of ``Evaluator.bind``
    that raises ``message`` when it runs."""
    def fail(ev, fr, *args, message=message):
        raise ChoreoRuntimeError(message)
    return fail


END_STEP = Step(RETURN, None, None, 0, _unit)  # a body's end returns unit


def _frame(ev, fr):
    return fr


def _name(ident):
    def name(ev, fr, ident=ident):
        env = fr.env
        if ident in env:
            return env[ident]
        if ident == "this":
            return fr.this
        if fr.this is not None and ident in fr.this.fields:
            return fr.this.fields[ident]
        raise ChoreoRuntimeError(f"unbound name '{ident}'")
    return name


def _set_name(fr, ident, value):
    if ident in fr.env:
        fr.env[ident] = value
    elif fr.this is not None:
        fr.this.fields[ident] = value
    else:
        raise ChoreoRuntimeError(f"cannot assign unknown name '{ident}'")


def _unsupported_target(ev, fr):
    raise ChoreoRuntimeError("unsupported assignment target")


def _set_field(obj, name, value):
    if not isinstance(obj, ProgramObject):
        raise ChoreoRuntimeError("unsupported assignment target")
    obj.fields[name] = value


def _binary(op, left, right):
    if op == "&&" or op == "||":
        def logical(ev, fr, op=op, left=left, right=right, stop=op == "||"):
            value = left(ev, fr)
            if value is True or value is False:
                return value if value is stop else not_null(right(ev, fr), op)
            return binary_value(op, not_null(value, op), right(ev, fr))
        return logical
    return lambda ev, fr, op=op, left=left, right=right: binary_value(
        op, left(ev, fr), right(ev, fr))


def _arguments(args):
    """The closure of the list of the values of the compiled ``args``; a
    call of fewer than three builds its list itself."""
    return lambda ev, fr, fns=tuple(f for _, f in args): [f(ev, fr) for f in fns]


def _env(names):
    """The builder of a frame's store from the values of the arguments of a
    call, by the names of its method's parameters."""
    if not names:
        return lambda args: {}
    if len(names) == 1:
        return lambda args, a=names[0]: {a: args[0]}
    if len(names) == 2:
        return lambda args, a=names[0], b=names[1]: {a: args[0], b: args[1]}
    return lambda args, names=tuple(names): dict(zip(names, args))


# Generator functions of the expressions with an operand that calls. An
# operand is ``(flag, closure)``; one flagged ``DEEP`` runs with ``yield
# from``, and an ``OWN`` one yields its call.

def _operand(compiled, ev, fr):
    """The value of the compiled operand ``compiled``, as a generator."""
    flag, f = compiled
    if flag == DEEP:
        return (yield from f(ev, fr))
    value = f(ev, fr)
    if type(value) is GeneratorType:
        value = yield value
    return value


def _assign_g(op, receiver, read, store, value):
    def assign(ev, fr, op=op, receiver=receiver, read=read, store=store, value=value):
        obj = yield from _operand(receiver, ev, fr)
        old = read(ev, obj) if op else None
        new = yield from _operand(value, ev, fr)
        store(obj, binary_value(op, old, new) if op else new)
    return assign


def _binary_g(op, left, right):
    (lflag, left), (rflag, right) = left, right

    def binary(ev, fr, op=op, lflag=lflag, left=left, rflag=rflag, right=right,
               logic=op == "&&" or op == "||", stop=op == "||"):
        if lflag == DEEP:
            lvalue = yield from left(ev, fr)
        else:
            lvalue = left(ev, fr)
            if type(lvalue) is GeneratorType:
                lvalue = yield lvalue
        logical = logic and (lvalue is True or lvalue is False)
        if logical and lvalue is stop:
            return lvalue
        if logic:
            not_null(lvalue, op)  # before the right operand runs, as Java unboxes it
        if rflag == DEEP:
            rvalue = yield from right(ev, fr)
        else:
            rvalue = right(ev, fr)
            if type(rvalue) is GeneratorType:
                rvalue = yield rvalue
        return not_null(rvalue, op) if logical else binary_value(op, lvalue, rvalue)
    return binary


def _call_g(operands, fn):
    """A call, ``new`` or unit call with an operand that calls:
    ``fn(evaluator, frame, values)`` on the values of its compiled
    ``operands``, which run in order."""
    def call(ev, fr, operands=tuple(operands), fn=fn):
        values = []
        for flag, f in operands:
            if flag == DEEP:
                value = yield from f(ev, fr)
            else:
                value = f(ev, fr)
                if type(value) is GeneratorType:
                    value = yield value
            values.append(value)
        value = fn(ev, fr, values)
        if type(value) is GeneratorType:
            value = yield value
        return value
    return call


def _method(table, name, slot):
    """The call of the method ``name`` of ``slot`` on the first of
    ``values``, with the rest as its arguments, by its receiver table
    ``table``."""
    def method(ev, fr, values, table=table, name=name, slot=slot):
        obj, args = values[0], values[1:]
        fn = table.get(type(obj))
        return ev.call_method(obj, name, args, slot) if fn is None else fn(ev, obj, args)
    return method


# Each statement and expression class of both languages -> its compile
# function: ``f(evaluator, node, cont)`` for a statement, its first step
# (see ``Evaluator.compile_stm``); ``f(evaluator, node)`` for an expression,
# ``(flag, f)``: ``f(evaluator, frame)`` returns its value (flag 0: a call so
# flagged never returns a generator), returns the value or the generator of
# the call or ``new`` it is (``OWN``), or is a generator function whose
# value is its value (``DEEP``, when an operand has a flag).
COMPILE = {cls: compile for *classes, compile in [
    (S.ExpStm, LExpStm, _statement(EXP, "exp")),
    (S.VarDecl, LVarDecl, _statement(VAR, "init")),
    (S.Assign, LAssign, _c_assign),
    (S.Return, LReturn, _statement(RETURN, "value")),
    (S.If, LIf, _statement(IF, "guard")),
    (S.Switch, LSwitch, _statement(SWITCH, "guard")),
    (S.Block, LBlock, S.TryCatch, LTryCatch,  # a try runs its body
     lambda ev, stm, cont: ev.compile_stm(stm.body, cont)),
    (S.Nil, LNil, lambda ev, stm, cont: cont),
    (S.Throw, LThrow, _c_throw),
    (S.Name, LName, _c_name),
    (S.Literal, LLit, _c_literal),
    (LUnit, lambda ev, exp: (0, _unit)),
    (S.StaticRef, LStaticName, _c_type),
    (S.FieldAcc, LFieldAcc, _c_field),
    (S.Call, LCall, _c_call),
    (S.New, LNew, _c_bound),
    (LUnitCall, _c_unit_call),
    (S.Binary, LBinary, _c_binary),
] for cls in classes}


# ---------------------------------------------------------------- the oracle

class GlobalChannel:
    """Passive channel value: com relocates, select echoes."""

    def __init__(self, key="<anonymous>"):
        self.key = key

    def __repr__(self):
        return f"GlobalChannel(key={self.key!r})"

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


class GlobalInterpreter(Evaluator):
    """Runs a checked program. A frame's site is its role binding."""

    OBJECT = GlobalObject
    METHODS = method_table([((GlobalChannel, "com"), lambda ev, ch, a: ch.com(*a)),
                            ((GlobalChannel, "select"), lambda ev, ch, a: ch.select(*a))])

    def __init__(self, checked):
        super().__init__(Console())
        self.checked = checked
        self.table = checked.table
        if checked.facts is None:
            checked.facts = Facts(checked.tables)
        self.facts = checked.facts
        self.channels = {}

    def claim_channel(self, key):
        if key not in self.channels:
            self.channels[key] = GlobalChannel(key)
        return self.channels[key]

    def actual_roles(self, te, binding):
        """Actual roles of a denoted type expression under a role binding."""
        return {binding[r] for r in self.checked.type_roles(te) if r in binding}

    # ------------------------------------------------------------ calls

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

    def slot(self, exp):
        resolved = self.checked.resolved.get(id(exp))
        return resolved[1].slot if resolved else None

    @staticmethod
    def dispatcher(name, arity, slot):
        def dispatch(ev, obj, args, name=name, arity=arity, slot=slot):
            try:
                mi, subst = ev.facts.tables[obj.class_name][slot]
            except KeyError:
                mi, subst = ev.method(obj.class_name, name, arity, slot)
            return ev.run(obj, ev.super_binding(mi.owner, subst, obj.binding) if subst
                          else obj.binding, mi.node, args)
        return dispatch

    def declared(self, class_name):
        return ([(mi.node, (mi, subst)) for mi in sup.methods]
                for sup, subst in self.checked.supertype_closure(self.table[class_name]))

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

    def bind(self, exp):
        resolved = self.checked.resolved.get(id(exp))
        mi = resolved[1] if resolved else None
        if type(exp) is S.New:
            fn, info = CONSTRUCTORS.get(exp.class_name), self.table.get(exp.class_name)
            if fn is not None or info is None:
                return 0, fn or raising(f"unknown class '{exp.class_name}'")
            return OWN if mi is not None and mi.node.body is not None else 0, (
                lambda ev, fr, args, info=info, roles=tuple(exp.roles), ctor=mi:
                ev.instantiate(info, [fr.site[r] for r in roles], ctor, args))
        scope, name = exp.scope, exp.name
        if scope is None:
            if mi is None:
                return 0, raising(f"unresolved call '{name}'")
            if name == "super":
                return OWN, lambda ev, fr, args, mi=mi: ev.run(
                    fr.this, ev._super_ctor_binding(fr, mi), mi.node, args)
            if mi.is_static:
                return OWN, lambda ev, fr, args, mi=mi: ev.call_static(mi, fr.site, args)
            dispatch = self.receivers(name, len(exp.args), mi.slot)[GlobalObject]
            return OWN, lambda ev, fr, args, d=dispatch: d(ev, fr.this, args)
        fn = builtin_static(scope.name, name)
        if fn is not None:
            return 0, fn
        info = self.table.get(scope.name)
        if info is None or mi is None:
            return 0, raising(f"unknown static call '{scope.name}.{name}'")
        roles = tuple((v.name, r) for v, r in zip(info.role_vars, scope.roles))
        return OWN, lambda ev, fr, args, mi=mi, roles=roles: ev.call_static(
            mi, {v: fr.site[r] for v, r in roles}, args)

    def _super_ctor_binding(self, frame, mi):
        """The role binding of the superclass constructor ``mi`` on
        ``frame.this``, as an inherited method's, by the subst that the
        table of its class holds for it."""
        obj = frame.this
        return self.super_binding(mi.owner, self.facts.tables[obj.class_name][mi.slot][1],
                                  obj.binding)

    def bind_static(self, scope, name):
        info = self.table.get(scope.name)
        if info is not None and info.is_enum and name in info.node.cases:
            return lambda ev, fr, value=EnumV(info.name, name): value
        if scope.name == "System" and name == "out":
            return lambda ev, fr, role=scope.roles[0]: PrintStreamV(ev.console, fr.site[role])
        return raising(f"unknown static field '{scope.name}.{name}'")

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
        for sup, submap in self.checked.supertype_closure(info):
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
    to channel keys (every channel-typed constructor parameter must
    appear). ``wire_arguments`` says which argument each parameter gets.
    An overloaded entry name means its overload with the fewest parameters
    (the first declared of those), so a ``@Test`` method's name means it.
    """
    channels = channels or {}
    info = checked.decl_info(entry_class)
    entry_mi = min((mi for mi in info.methods if mi.name == entry_method),
                   key=lambda mi: len(mi.node.params), default=None) if info is not None else None
    if entry_mi is None:
        return error_report(f"unknown entry class '{entry_class}'" if info is None
                            else f"'{entry_class}' has no method '{entry_method}'")
    interp = GlobalInterpreter(checked)
    binding = {r: r for r in info.role_names}
    started = time.perf_counter()

    def located(params):
        return [(p.name, interp.actual_roles(p.te, binding)) for p in params]

    try:
        if not entry_mi.is_static:
            ctor = info.constructors[0]
            ctor_args = wire_arguments(located(ctor.node.params), channels,
                                       interp.claim_channel, owner=entry_class)
        pending = {r: list(vs) for r, vs in (args_by_role or {}).items()}
        call_args = wire_arguments(located(entry_mi.node.params), channels,
                                   interp.claim_channel, pending)

        if entry_mi.is_static:
            result = interp.now(interp.call_static(entry_mi, binding, call_args))
        else:
            receiver = interp.now(interp.instantiate(info, info.role_names, ctor, ctor_args))
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
    ``pending`` (role -> list, consumed), and is an error when none is left;
    any other is an error. Constructors take no manifest values (``pending``
    None): each of their parameters that lives at some role must be a
    channel.
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
        elif len(roles) > 1:
            raise ChoreoRuntimeError(f"entry parameter '{name}' at {', '.join(sorted(roles))} "
                                     f"has no channel wiring")
        else:
            role = next(iter(roles))
            if not pending.get(role):
                raise ChoreoRuntimeError(
                    f"entry parameter '{name}' at {role} has no value in the arguments")
            args.append(decode_value(pending[role].pop(0)))
    return args
