"""Distributed evaluator: each role interprets its projected unit, and all
roles of a run take turns on one thread (``run_workers``, which serves the
test kit too), each until it waits on a channel or ends. A method call is
one generator on its role's stack, run by ``runtime.drive`` as the oracle's
are, so recursion takes no Python stack and is bounded only by
``runtime.MAX_CALL_DEPTH``; an expression that calls no method of the
program and uses no channel evaluates with no generator. The first role to
fail cancels the others, a proven deadlock stops every role at once, and the
deadline, checked at every statement, stops programs that diverge.
Try/catch executes its body (there is no user-level throw; generated
default throws surface as role errors).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from types import GeneratorType

from .builtins import Builtins, Console, PrintStreamV, binary_value
from .interpreter import ExecutionReport, wire_arguments
from .local import (
    LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm, LFieldAcc, LIf,
    LLit, LName, LNew, LNil, LocalProgram, LReturn, LStaticName, LSwitch,
    LThrow, LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .projector import generated_name
from .runtime import (
    UNIT, ChannelEndpoint, ChannelRegistry, ChoreoRuntimeError, DeadlockTimeout,
    EnumV, ExecutionContext, drive, is_unit, observe_value, observed_object,
)


@dataclass
class LocalObject:
    unit_name: str
    fields: dict = field(default_factory=dict)


class ProgramFacts:
    """What the interpreters of one ``LocalProgram`` look up, worked out
    once: declarations, methods, and which expressions call something."""

    def __init__(self, units):
        self.decls = {u.generated_name: u.decl for u in units}
        self.method_keys = {(m.name, len(m.params)) for d in self.decls.values()
                            if isinstance(d, LClass) for m in d.methods}
        self._methods = {}
        self.flags = {}  # id(expression) -> flag; the program keeps each alive

    def method(self, class_name, name, arity, static=False):
        """The method with a body that a call names, up the superclasses."""
        key = (class_name, name, arity, static)
        if key not in self._methods:
            decl, found = self.decls.get(class_name), None
            while found is None and isinstance(decl, LClass):
                found = next((m for m in decl.methods if m.name == name
                              and len(m.params) == arity and m.body is not None
                              and (not static or "static" in m.modifiers)), None)
                decl = self.decls.get(decl.extends.name) if decl.extends is not None else None
            self._methods[key] = found
        if self._methods[key] is None:
            kind = "static method" if static else "method"
            raise ChoreoRuntimeError(f"'{class_name}' has no {kind} '{name}/{arity}'")
        return self._methods[key]

    def flag(self, exp):
        """Whether ``exp`` calls a method of the program or uses a channel,
        kept in ``flags`` with its operands' (but for names and literals)."""
        t = type(exp)
        own, operands = False, ()
        if t is LName or t is LLit or t is LUnit:
            return False
        if t is LCall:
            scope = exp.scope
            operands = exp.args if scope is None else exp.args + [scope]
            if scope is None or type(scope) is LStaticName:
                own = scope is None or scope.name in self.decls
            else:
                own = exp.name in ("com", "select") or (exp.name, len(exp.args)) in self.method_keys
        elif t is LNew:
            own, operands = exp.class_name in self.decls, exp.args
        elif t is LUnitCall:
            operands = exp.args
        elif t is LBinary:
            operands = (exp.left, exp.right)
        elif t is LFieldAcc:
            operands = (exp.scope,)
        flag = self.flags[id(exp)] = any([self.flag(o) for o in operands]) or own
        return flag


def _wait(endpoint, name, message, sending):
    """``com`` or ``select`` on ``endpoint`` once it can proceed."""
    while not endpoint.ready(sending):
        yield endpoint, sending
    return getattr(endpoint, name)(message)


class LocalInterpreter(Builtins):
    """Interprets the local language for one role, and is that role's
    builtins. Its methods that make calls return the value of a builtin, or
    the generator of a method of the program, or of a wait on a channel,
    for their caller to run; a builtin's callback runs at once, to the end.
    """

    def __init__(self, program, role, registry, console, context):
        """``program`` is a LocalProgram, or a list of its units."""
        super().__init__(console)
        if not isinstance(program, LocalProgram):
            program = LocalProgram(list(program))
        if program.facts is None:
            program.facts = ProgramFacts(program.units)
        self.facts = program.facts
        self.role = role
        self.registry = registry
        self.context = context

    def claim_channel(self, key):
        return self.registry.claim(key, self.role)

    def invoke(self, receiver, name, args):
        return self._now(self._invoke(receiver, name, args))

    def _now(self, value):
        """``value``, or the value of the generator ``value`` run at once."""
        if type(value) is not GeneratorType:
            return value
        wait, value = drive([value])
        if wait is not None:
            raise ChoreoRuntimeError(f"{self.role} {wait[0].operation(wait[1])} "
                                     f"inside a builtin's callback, which cannot wait")
        return value

    # ---------------------------------------------------------------- calls

    def run_ctor(self, this, class_name, args):
        """Runs on ``this`` the constructor of ``class_name`` taking ``args``,
        by default none; a generator whose value is ``this``."""
        decl = self.facts.decls.get(class_name)
        ctors = decl.constructors if isinstance(decl, LClass) else []
        ctor = next((c for c in ctors if len(c.params) == len(args)), None)
        if ctor is not None:
            yield self._method(this, class_name, ctor, args)
        elif args or not isinstance(decl, LClass):
            raise ChoreoRuntimeError(f"no constructor '{class_name}/{len(args)}'")
        return this

    def _new(self, class_name, args):
        hit, value = self.construct(class_name, args)
        if hit:
            return value
        decl = self.facts.decls.get(class_name)
        if decl is None:
            raise ChoreoRuntimeError(f"unknown local class '{class_name}'")
        if isinstance(decl, LEnum):
            raise ChoreoRuntimeError(f"cannot instantiate enum '{class_name}'")
        return self.run_ctor(LocalObject(class_name), class_name, args)

    def _invoke(self, receiver, name, args):
        if isinstance(receiver, LocalObject):
            m = self.facts.method(receiver.unit_name, name, len(args))
            return self._method(receiver, receiver.unit_name, m, args)
        if type(receiver) is ChannelEndpoint and name in ("com", "select"):
            message = args[0] if args else UNIT
            sending = not is_unit(message)
            if receiver.ready(sending):
                return getattr(receiver, name)(message)
            return _wait(receiver, name, message, sending)
        hit, value = self.try_call_method(receiver, name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")

    def _call(self, frame, exp, args):
        """The call ``exp``, given its arguments; its receiver must call
        nothing."""
        scope = exp.scope
        if scope is None and exp.name == "super":
            decl = self.facts.decls[frame.unit_name]
            if decl.extends is None:
                raise ChoreoRuntimeError("no superclass constructor")
            return self.run_ctor(frame.this, decl.extends.name, args)
        if scope is None:
            m = self.facts.method(frame.unit_name, exp.name, len(args))
            if "static" in m.modifiers:
                return self._method(None, frame.unit_name, m, args)
            if frame.this is None:
                raise ChoreoRuntimeError(
                    f"instance method '{exp.name}' called from a static context")
            return self._method(frame.this, frame.unit_name, m, args)
        if type(scope) is not LStaticName:
            return self._invoke(self.eval(frame, scope), exp.name, args)
        if scope.name in self.facts.decls:
            m = self.facts.method(scope.name, exp.name, len(args), static=True)
            return self._method(None, scope.name, m, args)
        hit, value = self.try_static_call(scope.name, exp.name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"unknown static call '{scope.name}.{exp.name}'")

    # ----------------------------------------------------------- statements

    def _method(self, this, unit_name, method, args):
        """One call of ``method``, as a generator (see ``runtime.drive``)."""
        frame = _LFrame(this, unit_name, {p.name: a for p, a in zip(method.params, args)})
        deadline, facts, flags, ev = self.context.deadline, self.facts, self.facts.flags, self.eval
        rest = []  # the continuations of the enclosing blocks, innermost last
        stm = method.body
        while True:
            if stm is None or type(stm) is LNil:
                if not rest:
                    return UNIT
                stm = rest.pop()
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlockTimeout("deadline exceeded")
            t = type(stm)
            if t is LBlock or t is LTryCatch:
                rest.append(stm.cont)
                stm = stm.body
                continue
            if t is LThrow:
                raise ChoreoRuntimeError(stm.message)
            # Every other statement evaluates one expression first.
            exp = getattr(stm, _EXPRESSION.get(t, "exp"))
            if exp is None:
                value = UNIT
            elif flags.get(id(exp)) or (id(exp) not in flags and facts.flag(exp)):
                value = yield from self._eval_g(frame, exp, flags)
            else:
                value = ev(frame, exp)
            if t is LReturn:
                return value
            if t is LIf:
                rest.append(stm.cont)
                stm = stm.then if value is True else stm.orelse
            elif t is LSwitch:
                if not isinstance(value, EnumV):
                    raise ChoreoRuntimeError("switch guard must be an enumerated value")
                rest.append(stm.cont)
                stm = next((body for label, body in stm.cases if label == value.case),
                           stm.default)
            elif t is LVarDecl:
                frame.env[stm.name] = value
                stm = stm.cont
            elif t is LAssign:
                if stm.op != "=":
                    value = binary_value(stm.op[:-1], ev(frame, stm.target), value)
                self.assign_to(frame, stm.target, value)
                stm = stm.cont
            elif t is LExpStm:
                stm = stm.cont
            else:
                raise ChoreoRuntimeError(f"cannot execute {stm!r}")

    def assign_to(self, frame, target, value):
        if isinstance(target, LName):
            if target.ident in frame.env:
                frame.env[target.ident] = value
                return
            if frame.this is not None:
                frame.this.fields[target.ident] = value
                return
            raise ChoreoRuntimeError(f"cannot assign unknown name '{target.ident}'")
        if isinstance(target, LFieldAcc):
            scope = self.eval(frame, target.scope)
            if isinstance(scope, LocalObject):
                scope.fields[target.name] = value
                return
        raise ChoreoRuntimeError("unsupported assignment target")

    # ---------------------------------------------------------- expressions

    def eval(self, frame, exp):
        """The value of ``exp``; a method of the program that it calls runs
        at once, to the end, as a builtin's callback does."""
        t = type(exp)
        if t is LName:
            if exp.ident == "this":
                return frame.this
            if exp.ident in frame.env:
                return frame.env[exp.ident]
            if frame.this is not None and exp.ident in frame.this.fields:
                return frame.this.fields[exp.ident]
            raise ChoreoRuntimeError(f"unbound name '{exp.ident}'")
        if t is LLit:
            return exp.value
        if t is LUnit:
            return UNIT
        if t is LCall or t is LNew:
            args = [self.eval(frame, a) for a in exp.args]
            return self._now(self._call(frame, exp, args) if t is LCall
                             else self._new(exp.class_name, args))
        if t is LFieldAcc and type(exp.scope) is LStaticName:
            cname, name = exp.scope.name, exp.name
            if cname == "Unit" and name == "id":
                return UNIT
            decl = self.facts.decls.get(cname)
            if isinstance(decl, LEnum) and name in decl.cases:
                return EnumV(cname, name)
            if cname == "System" and name == "out":
                return PrintStreamV(self.console, self.role)
            raise ChoreoRuntimeError(f"unknown static field '{cname}.{name}'")
        if t is LFieldAcc:
            return self.field_of(self.eval(frame, exp.scope), exp.name)
        if t is LBinary:
            left = self.eval(frame, exp.left)
            logical = exp.op in ("&&", "||") and isinstance(left, bool)
            if logical and left is (exp.op == "||"):
                return left
            right = self.eval(frame, exp.right)
            return right if logical else binary_value(exp.op, left, right)
        if t is LUnitCall:
            for a in exp.args:
                self.eval(frame, a)
            return UNIT
        if t is LStaticName:
            raise ChoreoRuntimeError(f"'{exp.name}' is a type, not a value")
        raise ChoreoRuntimeError(f"cannot evaluate {exp!r}")

    def _eval_g(self, frame, exp, flags):
        """``eval`` of an expression that calls something, as a generator
        (see ``runtime.drive``); ``flags`` holds those of its operands."""
        ev, ev_g = self.eval, self._eval_g
        t = type(exp)
        if t is LBinary:
            left, right = exp.left, exp.right
            left = (yield from ev_g(frame, left, flags)) if flags.get(id(left)) else ev(frame, left)
            logical = exp.op in ("&&", "||") and isinstance(left, bool)
            if logical and left is (exp.op == "||"):
                return left
            right = (yield from ev_g(frame, right, flags)) if flags.get(id(right)) else ev(frame, right)
            return right if logical else binary_value(exp.op, left, right)
        if t is LFieldAcc:
            return self.field_of((yield from ev_g(frame, exp.scope, flags)), exp.name)
        args = []
        for a in exp.args:
            args.append((yield from ev_g(frame, a, flags)) if flags.get(id(a)) else ev(frame, a))
        if t is LUnitCall:
            return UNIT
        if t is LNew:
            value = self._new(exp.class_name, args)
        elif flags.get(id(exp.scope)):
            value = self._invoke((yield from ev_g(frame, exp.scope, flags)), exp.name, args)
        else:
            value = self._call(frame, exp, args)
        if type(value) is GeneratorType:
            value = yield value
        return value

    def field_of(self, scope, name):
        if isinstance(scope, LocalObject):
            if name in scope.fields:
                return scope.fields[name]
            raise ChoreoRuntimeError(
                f"object of '{scope.unit_name}' has no field '{name}' yet")
        raise ChoreoRuntimeError(f"no field '{name}' on {scope!r}")


# The expression each statement evaluates first, where not ``exp``.
_EXPRESSION = {LVarDecl: "init", LReturn: "value", LAssign: "value", LIf: "guard",
               LSwitch: "guard"}


@dataclass
class _LFrame:
    this: LocalObject
    unit_name: str
    env: dict


def observe_local(value):
    """Observation of a worker value, comparable with the global role view."""
    return observe_value(value, _observe_object)


def _observe_object(value):
    if isinstance(value, LocalObject):
        return observed_object(value.unit_name, value.fields.items(), observe_local)
    return None


# ----------------------------------------------------------------- workers

@dataclass
class WorkerOutcome:
    role: str
    status: str  # ok | deadlock-timeout | error
    value: object = None
    error: str = None


def _entry(interp, unit_name, entry_method, ctor_args, method_args):
    """A role's entry call, on a new instance unless static, as a generator."""
    m = interp.facts.method(unit_name, entry_method, len(method_args))
    this = None if "static" in m.modifiers else (yield interp._new(unit_name, ctor_args))
    return (yield interp._method(this, unit_name, m, method_args))


def _step(stack, outcome, context):
    """Runs a role until it waits on a channel (False), ends or fails."""
    try:
        wait, outcome.value = drive(stack)
    except DeadlockTimeout as e:
        outcome.status, outcome.error = "deadlock-timeout", str(e)
    except ChoreoRuntimeError as e:
        outcome.error = f"{type(e).__name__}: {e}"
    except Exception as e:  # a fault of the interpreter, or a limit of the host
        outcome.error = f"panic: {type(e).__name__}: {e}"
    else:
        if wait is not None:
            context.waits(outcome.role, *wait)
            return False
        outcome.status = "ok"
    for g in reversed(stack):
        g.close()
    context.finish(outcome.role, outcome.status, outcome.error)
    return True


def run_workers(local_program, registry, console, entries):
    """Runs each role's entry call; all roles take turns on this thread.

    ``entries`` maps each role to (unit name, entry method, constructor
    arguments, method arguments). Returns the outcomes by role, the root
    cause of a failure first.
    """
    context = registry.context
    outcomes = {role: WorkerOutcome(role, "error") for role in entries}
    stacks = {role: [_entry(LocalInterpreter(local_program, role, registry, console, context),
                            *entry)] for role, entry in entries.items()}
    context.start(entries)
    pending = context.pending
    while stacks and context.failure is None:
        runnable = [r for r in stacks if r not in pending or pending[r][0].ready(pending[r][1])]
        if not runnable:
            context.deadlock(stacks)
        for role in runnable:
            pending.pop(role, None)
            if context.failure is None and _step(stacks[role], outcomes[role], context):
                del stacks[role]
    for role, stack in stacks.items():  # cancelled; a proven deadlock stops all alike
        for g in reversed(stack):
            g.close()
        failed, status, message = context.failure
        outcomes[role].status, outcomes[role].error = (
            (status, message) if failed is None else ("error", f"cancelled: {failed} failed"))
    root = context.failure[0] if context.failure is not None else None
    return {o.role: o for o in sorted(outcomes.values(), key=lambda o: o.role != root)}


def _failure_summary(context, outcomes):
    """The run's root cause, then every other role's own error."""
    role, _, message = context.failure
    parts = [f"{role}: {message}" if role is not None else message]
    parts += [f"{r}: {o.error}" for r, o in outcomes.items()
              if o.error and r != role and o.error != message]
    return "; ".join(parts)


def eval_distributed(local_program, entry_class, roles, entry_method,
                     args_by_role=None, channels=None, deadline=10.0):
    """Runs one worker per role until all finish, one fails, they deadlock
    or the deadline passes; returns an ExecutionReport.

    Arguments are wired as ``interpreter.wire_arguments`` says, with the
    parameters a role's unit types as ``Unit`` living at no role.
    """
    args_by_role = args_by_role or {}
    channels = channels or {}
    registry = ChannelRegistry(ExecutionContext(deadline))
    console = Console()
    started = time.perf_counter()

    entries = {}
    for role in roles:
        unit_name = generated_name(entry_class, roles, role)
        unit = local_program.unit(unit_name)
        if unit is None:
            raise ChoreoRuntimeError(f"missing projected unit '{unit_name}'")
        method = next((m for m in unit.decl.methods if m.name == entry_method), None)
        if method is None:
            raise ChoreoRuntimeError(f"'{unit_name}' has no method '{entry_method}'")

        def located(params, role=role):
            return [(p.name, set() if p.te.name == "Unit" else {role}) for p in params]

        claim = partial(registry.claim, claimant=role)
        ctor_args = []
        if isinstance(unit.decl, LClass) and unit.decl.constructors:
            ctor_args = wire_arguments(located(unit.decl.constructors[0].params),
                                       channels, claim, owner=unit_name)
        method_args = wire_arguments(located(method.params), channels, claim,
                                     {role: list(args_by_role.get(role, []))})
        entries[role] = (unit_name, entry_method, ctor_args, method_args)
    outcomes = run_workers(local_program, registry, console, entries)

    duration = time.perf_counter() - started
    context = registry.context
    status, error = "ok", None
    if context.failure is not None:
        status, error = context.failure[1], _failure_summary(context, outcomes)
    returns = {role: observe_local(o.value) if o.status == "ok" else "unit"
               for role, o in outcomes.items()}
    report = ExecutionReport(returns, console.transcripts(), duration, status, error)
    report.outcomes = outcomes
    return report
