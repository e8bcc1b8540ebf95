"""Distributed evaluator: one worker thread per role over projected units.

Each worker interprets its own unit against the runtime channels. Workers
share only the channel registry and its ``ExecutionContext``; everything
else is worker-local. ``run_workers`` runs the workers of both
``eval_distributed`` and the test kit: the first worker to fail cancels the
others and is named first in the report, a proven deadlock stops every
worker at once, and the deadline stops programs that diverge. Try/catch
executes its body (there is no user-level throw in the language; generated
default throws surface as worker errors).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .builtins import Builtins, Console, PrintStreamV, binary_value
from .interpreter import ExecutionReport, wire_arguments
from .local import (
    LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm, LFieldAcc, LIf,
    LLit, LName, LNew, LNil, LReturn, LStaticName, LSwitch, LThrow,
    LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .projector import generated_name
from .runtime import (
    UNIT, Cancelled, ChannelRegistry, ChoreoRuntimeError, DeadlockTimeout,
    EnumV, ExecutionContext, observe_value, observed_object,
)


@dataclass
class LocalObject:
    unit_name: str
    fields: dict = field(default_factory=dict)


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class LocalInterpreter:
    """Interprets the local language for one role."""

    def __init__(self, units, role, registry, console, context):
        self.units = {u.generated_name: u for u in units}
        self.role = role
        self.console = console
        self.context = context
        self.builtins = Builtins(
            console,
            invoke=lambda recv, m, args: self.invoke(recv, m, args),
            claim_channel=lambda key: registry.claim(key, self.role),
        )

    # ------------------------------------------------------------- dispatch

    def unit_decl(self, name):
        u = self.units.get(name)
        return u.decl if u is not None else None

    def class_chain(self, name):
        """The class and its local superclasses, nearest first."""
        out = []
        while name is not None:
            decl = self.unit_decl(name)
            if decl is None or not isinstance(decl, LClass):
                break
            out.append(decl)
            name = decl.extends.name if decl.extends is not None else None
        return out

    def find_method(self, class_name, name, arity, static=None):
        for decl in self.class_chain(class_name):
            for m in decl.methods:
                if m.name != name or len(m.params) != arity or m.body is None:
                    continue
                if static is True and "static" not in m.modifiers:
                    continue
                return decl, m
        return None, None

    def run_ctor(self, this, class_name, args):
        """Runs on ``this`` the constructor of ``class_name`` that takes
        ``args``; a class without one taking no arguments has a default."""
        decl = self.unit_decl(class_name)
        ctors = decl.constructors if isinstance(decl, LClass) else []
        ctor = next((c for c in ctors if len(c.params) == len(args)), None)
        if ctor is not None:
            self.call(this, class_name, ctor, args)
        elif args or not isinstance(decl, LClass):
            raise ChoreoRuntimeError(f"no constructor '{class_name}/{len(args)}'")

    # ------------------------------------------------------------- running

    def construct(self, class_name, args):
        hit, value = self.builtins.construct(class_name, args)
        if hit:
            return value
        decl = self.unit_decl(class_name)
        if decl is None:
            raise ChoreoRuntimeError(f"unknown local class '{class_name}'")
        if isinstance(decl, LEnum):
            raise ChoreoRuntimeError(f"cannot instantiate enum '{class_name}'")
        obj = LocalObject(class_name)
        self.run_ctor(obj, class_name, args)
        return obj

    def call(self, this, unit_name, method, args):
        frame = _LFrame(this, unit_name, {p.name: a for p, a in zip(method.params, args)})
        try:
            self.exec_stm(frame, method.body)
        except _Return as r:
            return r.value
        return UNIT

    def invoke(self, receiver, name, args):
        if isinstance(receiver, LocalObject):
            decl, m = self.find_method(receiver.unit_name, name, len(args))
            if m is None:
                raise ChoreoRuntimeError(
                    f"'{receiver.unit_name}' has no method '{name}/{len(args)}'")
            return self.call(receiver, receiver.unit_name, m, args)
        hit, value = self.builtins.try_call_method(receiver, name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")

    # ----------------------------------------------------------- statements

    def exec_stm(self, frame, stm):
        while stm is not None:
            self.context.check()
            if isinstance(stm, LNil):
                return
            if isinstance(stm, LReturn):
                raise _Return(self.eval(frame, stm.value) if stm.value is not None else UNIT)
            if isinstance(stm, LThrow):
                raise ChoreoRuntimeError(stm.message)
            if isinstance(stm, LExpStm):
                self.eval(frame, stm.exp)
            elif isinstance(stm, LVarDecl):
                frame.env[stm.name] = self.eval(frame, stm.init) if stm.init is not None else UNIT
            elif isinstance(stm, LAssign):
                value = self.eval(frame, stm.value)
                if stm.op != "=":
                    current = self.eval(frame, stm.target)
                    value = binary_value(stm.op[:-1], current, value)
                self.assign_to(frame, stm.target, value)
            elif isinstance(stm, LIf):
                guard = self.eval(frame, stm.guard)
                self.exec_stm(frame, stm.then if guard is True else stm.orelse)
            elif isinstance(stm, LBlock):
                self.exec_stm(frame, stm.body)
            elif isinstance(stm, LSwitch):
                self.exec_switch(frame, stm)
            elif isinstance(stm, LTryCatch):
                self.exec_stm(frame, stm.body)
            else:
                raise ChoreoRuntimeError(f"cannot execute {stm!r}")
            stm = getattr(stm, "cont", None)

    def exec_switch(self, frame, stm):
        guard = self.eval(frame, stm.guard)
        if not isinstance(guard, EnumV):
            raise ChoreoRuntimeError("switch guard must be an enumerated value")
        for label, body in stm.cases:
            if label == guard.case:
                self.exec_stm(frame, body)
                return
        if stm.default is not None:
            self.exec_stm(frame, stm.default)

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
        if isinstance(exp, LUnit):
            return UNIT
        if isinstance(exp, LUnitCall):
            for a in exp.args:
                self.eval(frame, a)
            return UNIT
        if isinstance(exp, LLit):
            return exp.value
        if isinstance(exp, LName):
            if exp.ident == "this":
                return frame.this
            if exp.ident in frame.env:
                return frame.env[exp.ident]
            if frame.this is not None and exp.ident in frame.this.fields:
                return frame.this.fields[exp.ident]
            raise ChoreoRuntimeError(f"unbound name '{exp.ident}'")
        if isinstance(exp, LFieldAcc):
            return self.eval_field(frame, exp)
        if isinstance(exp, LCall):
            return self.eval_call(frame, exp)
        if isinstance(exp, LNew):
            return self.construct(exp.class_name, [self.eval(frame, a) for a in exp.args])
        if isinstance(exp, LBinary):
            return self.eval_binary(frame, exp)
        if isinstance(exp, LStaticName):
            raise ChoreoRuntimeError(f"'{exp.name}' is a type, not a value")
        raise ChoreoRuntimeError(f"cannot evaluate {exp!r}")

    def eval_field(self, frame, exp):
        if isinstance(exp.scope, LStaticName):
            cname = exp.scope.name
            if cname == "Unit" and exp.name == "id":
                return UNIT
            decl = self.unit_decl(cname)
            if isinstance(decl, LEnum) and exp.name in decl.cases:
                return EnumV(cname, exp.name)
            if cname == "System" and exp.name == "out":
                return PrintStreamV(self.console, self.role)
            raise ChoreoRuntimeError(f"unknown static field '{cname}.{exp.name}'")
        scope = self.eval(frame, exp.scope)
        if isinstance(scope, LocalObject):
            if exp.name in scope.fields:
                return scope.fields[exp.name]
            raise ChoreoRuntimeError(
                f"object of '{scope.unit_name}' has no field '{exp.name}' yet")
        raise ChoreoRuntimeError(f"no field '{exp.name}' on {scope!r}")

    def eval_call(self, frame, exp):
        args = [self.eval(frame, a) for a in exp.args]
        if exp.scope is None:
            if exp.name == "super":
                decl = self.unit_decl(frame.unit_name)
                sup = decl.extends.name if decl.extends is not None else None
                if sup is None:
                    raise ChoreoRuntimeError("no superclass constructor")
                self.run_ctor(frame.this, sup, args)
                return UNIT
            decl, m = self.find_method(frame.unit_name, exp.name, len(args))
            if m is None:
                raise ChoreoRuntimeError(
                    f"'{frame.unit_name}' has no method '{exp.name}/{len(args)}'")
            if "static" in m.modifiers:
                return self.call(None, frame.unit_name, m, args)
            if frame.this is None:
                raise ChoreoRuntimeError(
                    f"instance method '{exp.name}' called from a static context")
            return self.call(frame.this, frame.unit_name, m, args)
        if isinstance(exp.scope, LStaticName):
            cname = exp.scope.name
            if self.unit_decl(cname) is not None:
                decl, m = self.find_method(cname, exp.name, len(args), static=True)
                if m is None:
                    raise ChoreoRuntimeError(
                        f"no static method '{cname}.{exp.name}/{len(args)}'")
                return self.call(None, cname, m, args)
            hit, value = self.builtins.try_static_call(cname, exp.name, args)
            if hit:
                return value
            raise ChoreoRuntimeError(f"unknown static call '{cname}.{exp.name}'")
        receiver = self.eval(frame, exp.scope)
        return self.invoke(receiver, exp.name, args)

    def eval_binary(self, frame, exp):
        left = self.eval(frame, exp.left)
        if exp.op in ("&&", "||") and isinstance(left, bool):
            if exp.op == "&&":
                return self.eval(frame, exp.right) if left else False
            return True if left else self.eval(frame, exp.right)
        right = self.eval(frame, exp.right)
        return binary_value(exp.op, left, right)


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

# How long past the deadline a run waits for a worker stuck inside a single
# Python call, where it cannot see the deadline.
JOIN_GRACE_SECONDS = 2.0


@dataclass
class WorkerOutcome:
    role: str
    status: str  # ok | deadlock-timeout | error
    value: object = None
    error: str = None


def _run_entry(interp, unit_name, entry_method, ctor_args, method_args):
    """A role's entry call: a static method, or a method of a new instance."""
    _, m = interp.find_method(unit_name, entry_method, len(method_args))
    if m is None:
        raise ChoreoRuntimeError(f"'{unit_name}' has no method '{entry_method}'")
    this = None if "static" in m.modifiers else interp.construct(unit_name, ctor_args)
    return interp.call(this, unit_name, m, method_args)


def _work(interp, entry, outcome):
    try:
        outcome.value = _run_entry(interp, *entry)
        outcome.status = "ok"
    except DeadlockTimeout as e:
        outcome.status, outcome.error = "deadlock-timeout", str(e)
    except Cancelled as e:
        outcome.error = f"cancelled: {e}"
    except ChoreoRuntimeError as e:
        outcome.error = f"{type(e).__name__}: {e}"
    except Exception as e:  # worker panic
        outcome.error = f"panic: {type(e).__name__}: {e}"
    finally:
        interp.context.finish(outcome.role, outcome.status, outcome.error)


def run_workers(local_program, registry, console, entries):
    """Runs each role's entry call on a thread of its own.

    ``entries`` maps each role to (unit name, entry method, constructor
    arguments, method arguments). Returns the outcomes by role, the root
    cause of a failure first.
    """
    context = registry.context
    outcomes = {role: WorkerOutcome(role, "error") for role in entries}
    threads = [
        threading.Thread(
            target=_work,
            args=(LocalInterpreter(local_program.units, role, registry, console, context),
                  entry, outcomes[role]),
            name=f"worker-{role}", daemon=True)
        for role, entry in entries.items()
    ]
    context.start(entries)
    for t in threads:
        t.start()
    end = None if context.deadline is None else context.deadline + JOIN_GRACE_SECONDS
    for t, outcome in zip(threads, outcomes.values()):
        t.join(None if end is None else max(0.0, end - time.monotonic()))
        if t.is_alive():
            outcome.status = "deadlock-timeout"
            outcome.error = "worker still running past the deadline"
            context.finish(outcome.role, outcome.status, outcome.error)
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

        def claim(key, role=role):
            return registry.claim(key, role)

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
