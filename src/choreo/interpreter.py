"""The evaluator core both evaluators share, and the global evaluator.

``Evaluator`` runs method bodies of either language: the checked surface
program for the oracle, a role's projected units for a worker
(``distributed.LocalInterpreter``). A method's body is compiled at its first
call in a program, in the manner of Feeley and Lapalme's closure
generation: each statement becomes a ``Step`` whose expression is a Python
closure, a block's statements when the block is first entered, and one loop
runs the steps. ``COMPILE`` holds the compile function of every statement
and expression class of both languages. The compiled bodies are kept in the
program's facts, so every evaluator of a program shares one compile. Each evaluator supplies its
calls, its static fields and which of its calls may run a method of the
program, behind a few hooks. A method call is one generator, run by
``runtime.drive``, so recursion takes no Python stack and is bounded only by
``runtime.MAX_CALL_DEPTH``; an expression that calls no method of the
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
from dataclasses import dataclass
from types import GeneratorType

from . import surface as S
from .builtins import NO_METHODS, Builtins, Console, PrintStreamV, binary_value, method_table
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

# Statement kinds; an assignment runs as an expression statement.
EXP, VAR, RETURN, IF, SWITCH, BLOCK, END, THROW = (
    "exp", "var", "return", "if", "switch", "block", "end", "throw")
# How a compiled expression calls methods of the program, or waits (see
# ``Evaluator.compile_exp``).
OWN, DEEP = 1, 2
TYPES = (S.StaticRef, LStaticName)  # a class name used as a static scope


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

    An evaluator sets ``facts``, which its program keeps (``bodies``: see
    ``run``; ``names``: identifier -> the closure that reads it), and
    ``deadline`` (a ``time.monotonic()`` value, or None). Its class has one
    ``METHODS`` table (``builtins.method_table``, with its channels), which
    a call on a receiver binds when compiled. It supplies these hooks:

    - ``call(frame, exp, args)``: the unqualified or static call ``exp``;
    - ``new(frame, exp, args)``: the ``new`` expression ``exp`` of a class
      of the program;
    - ``call_object(obj, name, args)``: the method ``name`` of an object of
      the program;
    - ``constant(scope, name)``: the static field ``name`` of the class
      ``scope`` if it is a constant, folded when compiled, else None;
    - ``static_field(frame, scope, name)``: any other, read when it runs;
    - ``may_call(exp)``: whether the call or ``new`` ``exp`` itself may run
      a method of the program, or wait.
    """

    deadline = None

    def invoke(self, receiver, name, args):
        return self.now(self.call_method(receiver, name, args))

    def call_method(self, receiver, name, args):
        """The method ``name`` of ``receiver``: a method of the program, or
        the ``METHODS`` entry for its type."""
        if isinstance(receiver, ProgramObject):
            return self.call_object(receiver, name, args)
        hit, value = self.try_call_method(receiver, name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")

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
        ``facts.bodies``."""
        step = self.facts.bodies.get(id(method))
        if step is None:
            step = self.facts.bodies[id(method)] = self.compile_stm(method.body)
        return self._run_steps(Frame(this, {p.name: a for p, a in zip(method.params, args)}, site),
                               method.is_constructor, step)

    def _run_steps(self, frame, ctor, step):
        """The statement loop, on the steps of a body (see ``Step``).
        ``rest`` holds the steps of the blocks, branches and switches
        entered, innermost last, whose continuations run when their bodies
        end; ``return`` returns from the generator."""
        deadline, link = self.deadline, self._link
        rest = None
        while True:
            kind = step.kind
            if kind is END:
                if not rest:
                    return frame.this if ctor else UNIT
                step = rest.pop().cont
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlockTimeout("deadline exceeded")
            if kind is THROW:
                raise ChoreoRuntimeError(step.stm.message)
            if kind is not BLOCK:
                if step.deep:
                    value = yield from step.fn(self, frame)
                else:
                    value = step.fn(self, frame)
                    if type(value) is GeneratorType:
                        value = yield value
                if kind is EXP:
                    step = step.cont
                    continue
                if kind is VAR:
                    frame.env[step.stm.name] = value
                    step = step.cont
                    continue
                if kind is RETURN:
                    return frame.this if ctor else value
                if kind is SWITCH and not isinstance(value, EnumV):
                    raise ChoreoRuntimeError("switch guard must be an enumerated value")
            if rest is None:
                rest = []
            rest.append(step)
            if kind is BLOCK:
                step = step.body or link(step, "body")
            elif kind is IF:
                step = (step.then or link(step, "then")) if value is True else (
                    step.orelse or link(step, "orelse"))
            else:
                step = step.arms.get(value.case) or self._arm(step, value.case)

    def eval(self, frame, exp):
        """The value of ``exp``; a method of the program that it calls runs
        at once, to the end, as a builtin's callback does."""
        return self.now(self.compile_exp(exp)[1](self, frame))

    def instance(self, frame, exp, args):
        """The ``new`` expression ``exp``, given its arguments: a builtin
        value, or what the ``new`` hook returns."""
        hit, value = self.construct(exp.class_name, args)
        return value if hit else self.new(frame, exp, args)

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
        """Compiles the statement in the field ``attr`` of ``step``'s node
        into the step's slot of that name."""
        compiled = self.compile_stm(getattr(step.stm, attr))
        setattr(step, attr, compiled)
        return compiled

    def _arm(self, step, case):
        """Compiles the arm that the switch ``step`` takes on the label
        ``case``, and keeps it for that label."""
        stm = step.stm
        body = next((body for label, body in stm.cases if label == case), stm.default)
        compiled = step.arms[case] = self.compile_stm(body)
        return compiled

    def compile_stm(self, stm):
        """The statements from ``stm`` on to the end of its block, or to its
        first ``return`` or ``throw``, as ``Step``s linked by ``cont``; the
        bodies of blocks, branches and switches are compiled when first
        reached."""
        first = step = COMPILE[type(stm)](self, stm)
        while step.kind is not END and step.kind is not RETURN and step.kind is not THROW:
            stm = stm.cont
            step.cont = step = COMPILE[type(stm)](self, stm)
        return first

    def compile_exp(self, exp):
        """``exp`` as ``(flag, f)``: ``f(evaluator, frame)`` returns its
        value (flag 0: by ``may_call``, a call so flagged never returns a
        generator), returns the value or the generator of the call or
        ``new`` it is (``OWN``), or is a generator function whose value is
        its value (``DEEP``, when an operand has a flag)."""
        return COMPILE[type(exp)](self, exp)


# ------------------------------------------- compiled statements and closures

class Step:
    """A statement compiled for ``Evaluator._run_steps``: its kind and node;
    for a statement that evaluates an expression, that expression's closure
    ``fn`` (a generator function when ``deep``, see ``compile_exp``); its
    continuation ``cont``; and the first steps of its body or branches, each
    None until first reached, in the slots named as the node's fields that
    hold them, or, for a switch, in ``arms`` by label."""

    __slots__ = ("kind", "stm", "deep", "fn", "cont", "body", "then", "orelse", "arms")

    def __init__(self, kind, stm, flag=0, fn=None):
        self.kind, self.stm, self.deep, self.fn = kind, stm, flag == DEEP, fn
        self.cont = self.body = self.then = self.orelse = self.arms = None


END_STEP = Step(END, None)  # every block's end: it goes on to nothing


def _statement(kind, attr=None):
    """The compile function of the statements of ``kind`` that first
    evaluate the expression in their field ``attr``, if any."""
    if attr is None:
        return lambda ev, stm: Step(kind, stm)

    def compile_statement(ev, stm):
        exp = getattr(stm, attr)
        if exp is None:
            return Step(kind, stm, 0, _unit)
        flag, fn = COMPILE[type(exp)](ev, exp)
        step = Step(kind, stm, flag, fn)
        if kind is SWITCH:
            step.arms = {}
        return step
    return compile_statement


def _c_assign(ev, stm):
    """An assignment, in Java's order: a field target's receiver, then, for
    ``op=``, the target's value, then the right operand, then the store."""
    target, op, value = stm.target, stm.op[:-1], stm.value
    value = COMPILE[type(value)](ev, value)
    if type(target) is S.FieldAcc or type(target) is LFieldAcc:
        scope, name = target.scope, target.name
        receiver = COMPILE[type(scope)](ev, scope)
        if not (op or receiver[0] or value[0]):
            return Step(EXP, stm, 0, lambda ev, fr, r=receiver[1], n=name, v=value[1]:
                        _set_field(r(ev, fr), n, v(ev, fr)))
        read = lambda ev, obj, n=name: ev.field_of(obj, n)
        store = lambda obj, v, n=name: _set_field(obj, n, v)
    elif type(target) is S.Name or type(target) is LName:  # its receiver is the frame
        ident = target.ident
        if not (op or value[0]):
            return Step(EXP, stm, 0, lambda ev, fr, i=ident, v=value[1]:
                        _set_name(fr, i, v(ev, fr)))
        receiver, read = (0, _frame), _c_name(ev, target)[1]
        store = lambda fr, v, i=ident: _set_name(fr, i, v)
    else:
        return Step(EXP, stm, 0, _unsupported_target)
    return Step(EXP, stm, DEEP, _assign_g(op, receiver, read, store, value))


def _c_name(ev, exp):
    names = ev.facts.names
    name = names.get(exp.ident)
    if name is None:
        name = names[exp.ident] = _name(exp.ident)
    return 0, name


def _c_literal(ev, exp):
    return 0, lambda ev, fr, value=exp.value: value


def _c_type(ev, exp):
    def not_a_value(ev, fr, message=f"'{exp.name}' is a type, not a value"):
        raise ChoreoRuntimeError(message)
    return 0, not_a_value


def _c_field(ev, exp):
    scope, name = exp.scope, exp.name
    if type(scope) in TYPES:
        value = ev.constant(scope, name)
        if value is None:  # read when it runs, which raises if it is no field
            return 0, lambda ev, fr, s=scope, n=name: ev.static_field(fr, s, n)
        return 0, lambda ev, fr, value=value: value
    flag, scope = COMPILE[type(scope)](ev, scope)
    if flag:
        return DEEP, _field_g(flag, scope, name)
    return 0, lambda ev, fr, s=scope, n=name: ev.field_of(s(ev, fr), n)


def _c_binary(ev, exp):
    left, right = exp.left, exp.right
    left, right = COMPILE[type(left)](ev, left), COMPILE[type(right)](ev, right)
    if left[0] or right[0]:
        return DEEP, _binary_g(exp.op, left, right)
    return 0, _binary(exp.op, left[1], right[1])


def _c_call(ev, exp):
    """A call; its receiver runs before its arguments (JLS 15.12.4). A call
    on a receiver binds its name's ``METHODS`` entry (receiver type -> fn)."""
    scope = exp.scope
    receiver = None if scope is None or type(scope) in TYPES else COMPILE[type(scope)](ev, scope)
    table = ev.METHODS.get(exp.name, NO_METHODS)
    args, deep = _c_arguments(ev, exp.args)
    if deep or receiver is not None and receiver[0]:
        return DEEP, _call_g(exp, args, receiver, table)
    flag = OWN if ev.may_call(exp) else 0
    if receiver is None:
        return flag, lambda ev, fr, e=exp, a=_arguments(args): ev.call(fr, e, a(ev, fr))

    def method_call(ev, fr, r=receiver[1], t=table, n=exp.name, a=_arguments(args)):
        obj = r(ev, fr)
        fn = t.get(type(obj))
        if fn is None:
            return ev.call_method(obj, n, a(ev, fr))
        return fn(ev, obj, a(ev, fr))
    return flag, method_call


def _c_new(ev, exp):
    args, deep = _c_arguments(ev, exp.args)
    if deep:
        return DEEP, _call_g(exp, args, None)
    return OWN if ev.may_call(exp) else 0, (
        lambda ev, fr, e=exp, a=_arguments(args): ev.instance(fr, e, a(ev, fr)))


def _c_unit_call(ev, exp):
    args, deep = _c_arguments(ev, exp.args)
    if deep:
        return DEEP, _call_g(exp, args, None)

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


# Closures of expressions, each ``f(evaluator, frame)`` (see ``compile_exp``).
# They bind what they use as default arguments, not as free variables: a
# default takes no cell, so a compiled body keeps fewer objects for the
# cyclic collector to trace, and compiles faster.

def _unit(ev, fr):
    return UNIT


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
                return value if value is stop else right(ev, fr)
            return binary_value(op, value, right(ev, fr))
        return logical
    return lambda ev, fr, op=op, left=left, right=right: binary_value(
        op, left(ev, fr), right(ev, fr))


def _arguments(args):
    """The closure of the list of the values of the compiled ``args``."""
    if not args:
        return lambda ev, fr: []
    if len(args) == 1:
        return lambda ev, fr, f=args[0][1]: [f(ev, fr)]
    return lambda ev, fr, fns=tuple(f for _, f in args): [f(ev, fr) for f in fns]


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


def _field_g(flag, scope, name):
    def field(ev, fr, flag=flag, scope=scope, name=name):
        if flag == DEEP:
            value = yield from scope(ev, fr)
        else:
            value = scope(ev, fr)
            if type(value) is GeneratorType:
                value = yield value
        return ev.field_of(value, name)
    return field


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
        if rflag == DEEP:
            rvalue = yield from right(ev, fr)
        else:
            rvalue = right(ev, fr)
            if type(rvalue) is GeneratorType:
                rvalue = yield rvalue
        return rvalue if logical else binary_value(op, lvalue, rvalue)
    return binary


def _call_g(exp, args, receiver, table=NO_METHODS):
    """A call, ``new`` or unit call with an operand that calls; ``receiver``
    is its compiled receiver and ``table`` its bound entry (see ``_c_call``),
    or None for an unqualified or static call."""
    rflag, receiver = receiver or (0, None)

    def call(ev, fr, exp=exp, kind=type(exp), args=tuple(args), rflag=rflag,
             receiver=receiver, table=table):
        if receiver is not None:
            if rflag == DEEP:
                obj = yield from receiver(ev, fr)
            else:
                obj = receiver(ev, fr)
                if type(obj) is GeneratorType:
                    obj = yield obj
        values = []
        for flag, f in args:
            if flag == DEEP:
                value = yield from f(ev, fr)
            else:
                value = f(ev, fr)
                if type(value) is GeneratorType:
                    value = yield value
            values.append(value)
        if kind is LUnitCall:
            return UNIT
        if receiver is not None:
            fn = table.get(type(obj))
            value = ev.call_method(obj, exp.name, values) if fn is None else fn(ev, obj, values)
        elif kind is S.New or kind is LNew:
            value = ev.instance(fr, exp, values)
        else:
            value = ev.call(fr, exp, values)
        if type(value) is GeneratorType:
            value = yield value
        return value
    return call


# Each statement and expression class of both languages -> its compile
# function ``f(evaluator, node)``: a ``Step`` for a statement, ``(flag,
# closure)`` for an expression (see ``Evaluator.compile_exp``).
COMPILE = {cls: compile for *classes, compile in [
    (S.ExpStm, LExpStm, _statement(EXP, "exp")),
    (S.VarDecl, LVarDecl, _statement(VAR, "init")),
    (S.Assign, LAssign, _c_assign),
    (S.Return, LReturn, _statement(RETURN, "value")),
    (S.If, LIf, _statement(IF, "guard")),
    (S.Switch, LSwitch, _statement(SWITCH, "guard")),
    (S.Block, LBlock, S.TryCatch, LTryCatch, _statement(BLOCK)),  # a try runs its body
    (S.Nil, LNil, type(None), lambda ev, stm: END_STEP),  # None ends a block
    (S.Throw, LThrow, _statement(THROW)),
    (S.Name, LName, _c_name),
    (S.Literal, LLit, _c_literal),
    (LUnit, lambda ev, exp: (0, _unit)),
    (S.StaticRef, LStaticName, _c_type),
    (S.FieldAcc, LFieldAcc, _c_field),
    (S.Call, LCall, _c_call),
    (S.New, LNew, _c_new),
    (LUnitCall, _c_unit_call),
    (S.Binary, LBinary, _c_binary),
] for cls in classes}


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
    the oracle's compiled bodies. Kept as ``CheckedProgram.facts``; it holds
    the program's tables, not the program."""

    def __init__(self, checked):
        self.closure = checked._checker.supertype_closure
        self._methods = {}  # (declaration, name, arity) -> (MethodInfo, supertype, subst)
        # (name, arity) of the methods with a body outside the prelude: a
        # call that names none of these runs no method of the program.
        self.method_keys = {(mi.name, len(mi.node.params)) for info in checked._checker.own
                            for mi in info.methods if mi.node.body is not None}
        self.bodies = {}  # id(method) -> the first Step of its body
        self.names = {}  # identifier -> its compiled name

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

    METHODS = method_table([((GlobalChannel, "com"), lambda ev, ch, a: ch.com(*a)),
                            ((GlobalChannel, "select"), lambda ev, ch, a: ch.select(*a))])

    def __init__(self, checked):
        super().__init__(Console())
        self.checked = checked
        self.table = checked.table
        self.resolved = checked.resolved
        if checked.facts is None:
            checked.facts = OracleFacts(checked)
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

    def call_object(self, obj, name, args):
        mi, sup, submap = self.facts.method(obj.info, name, len(args))
        if mi is None:
            raise ChoreoRuntimeError(f"'{obj.info.name}' has no method '{name}/{len(args)}'")
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
            return self.call_object(frame.this, exp.name, args)
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

    def constant(self, scope, name):
        info = self.table.get(scope.name)
        if info is not None and info.is_enum and name in info.node.cases:
            return EnumV(info.name, name)
        return None

    def static_field(self, frame, scope, name):
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
