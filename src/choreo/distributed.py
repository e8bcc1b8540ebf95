"""Distributed evaluator: each role interprets its projected unit, and all
roles of a run take turns on one thread (``run_workers``, which serves the
test kit too), each until it waits on a channel or ends. A worker runs on
the evaluator core it shares with the oracle (``interpreter.Evaluator``),
and supplies what only workers have: method lookup up the ``extends``
chain, the unit forms and a wait on a channel, which is a generator on the
role's stack as a method call is. The first role to fail cancels the
others, a proven deadlock stops every role at once, and the deadline,
checked at every statement, stops programs that diverge. Try/catch executes
its body (there is no user-level throw; a generated default throw of a
selection switch fails its role).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from types import GeneratorType

from .builtins import Console, PrintStreamV, method_table
from .interpreter import Evaluator, ExecutionReport, ProgramObject, error_report, wire_arguments
from .local import LClass, LEnum, LNew, LocalProgram, LStaticName
from .projector import generated_name
from .runtime import (
    UNIT, ChannelEndpoint, ChannelRegistry, ChoreoRuntimeError, DeadlockTimeout,
    EnumV, ExecutionContext, drive, is_unit, observe_value, observed_object,
)


class ProgramFacts:
    """What the interpreters of one ``LocalProgram`` look up, worked out
    once: declarations and methods, and their compiled bodies, which every
    role's interpreter shares."""

    def __init__(self, units):
        self.decls = {u.generated_name: u.decl for u in units}
        self.method_keys = {(m.name, len(m.params)) for d in self.decls.values()
                            if isinstance(d, LClass) for m in d.methods}
        self._methods = {}
        self.bodies = {}  # id(method) -> the first Step of its body
        self.names = {}  # identifier -> its compiled name

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


def _channel(name):
    """``com`` or ``select`` on a worker's endpoint: its value, or a wait
    until the endpoint can proceed."""
    def operate(ev, endpoint, args, name=name):
        message = args[0] if args else UNIT
        sending = not is_unit(message)
        if endpoint.ready(sending):
            return getattr(endpoint, name)(message)
        return _wait(endpoint, name, message, sending)
    return operate


def _wait(endpoint, name, message, sending):
    """``com`` or ``select`` on ``endpoint`` once it can proceed."""
    while not endpoint.ready(sending):
        yield endpoint, sending
    return getattr(endpoint, name)(message)


class LocalInterpreter(Evaluator):
    """Interprets the local language for one role. A frame's site is the
    name of the unit whose method it runs; every statement checks the run's
    deadline."""

    METHODS = method_table([((ChannelEndpoint, name), _channel(name))
                            for name in ("com", "select")])

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
        self.deadline = context.deadline

    def claim_channel(self, key):
        return self.registry.claim(key, self.role)

    # ---------------------------------------------------------------- calls

    def may_call(self, exp):
        if type(exp) is LNew:
            return exp.class_name in self.facts.decls
        scope = exp.scope
        if scope is None or type(scope) is LStaticName:
            return scope is None or scope.name in self.facts.decls
        return exp.name in ("com", "select") or (exp.name, len(exp.args)) in self.facts.method_keys

    def run_ctor(self, this, class_name, args):
        """Runs on ``this`` the constructor of ``class_name`` taking ``args``,
        by default none: ``this``, or a generator whose value is ``this``."""
        decl = self.facts.decls.get(class_name)
        ctors = decl.constructors if isinstance(decl, LClass) else []
        ctor = next((c for c in ctors if len(c.params) == len(args)), None)
        if ctor is not None:
            return self.run(this, class_name, ctor, args)
        if args or not isinstance(decl, LClass):
            raise ChoreoRuntimeError(f"no constructor '{class_name}/{len(args)}'")
        return this

    def new(self, frame, exp, args):
        if exp.class_name not in self.facts.decls:
            raise ChoreoRuntimeError(f"unknown local class '{exp.class_name}'")
        return self.run_ctor(ProgramObject(exp.class_name), exp.class_name, args)

    def call_object(self, obj, name, args):
        m = self.facts.method(obj.class_name, name, len(args))
        return self.run(obj, obj.class_name, m, args)

    def call(self, frame, exp, args):
        scope = exp.scope
        if scope is None and exp.name == "super":
            decl = self.facts.decls[frame.site]
            if decl.extends is None:
                raise ChoreoRuntimeError("no superclass constructor")
            return self.run_ctor(frame.this, decl.extends.name, args)
        if scope is None:
            m = self.facts.method(frame.site, exp.name, len(args))
            if "static" in m.modifiers:
                return self.run(None, frame.site, m, args)
            if frame.this is None:
                raise ChoreoRuntimeError(
                    f"instance method '{exp.name}' called from a static context")
            return self.run(frame.this, frame.site, m, args)
        if scope.name in self.facts.decls:
            m = self.facts.method(scope.name, exp.name, len(args), static=True)
            return self.run(None, scope.name, m, args)
        hit, value = self.try_static_call(scope.name, exp.name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"unknown static call '{scope.name}.{exp.name}'")

    def constant(self, scope, name):
        cname = scope.name
        if cname == "Unit" and name == "id":
            return UNIT
        decl = self.facts.decls.get(cname)
        return EnumV(cname, name) if isinstance(decl, LEnum) and name in decl.cases else None

    def static_field(self, frame, scope, name):
        if scope.name == "System" and name == "out":
            return PrintStreamV(self.console, self.role)
        raise ChoreoRuntimeError(f"unknown static field '{scope.name}.{name}'")


def observe_local(value):
    """Observation of a worker value, comparable with the global role view."""
    return observe_value(value, lambda v: observed_object(
        v.class_name, v.fields.items(), observe_local) if isinstance(v, ProgramObject) else None)


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
    this = None
    if "static" not in m.modifiers:
        this = interp.run_ctor(ProgramObject(unit_name), unit_name, ctor_args)
        if type(this) is GeneratorType:
            this = yield this
    return (yield interp.run(this, unit_name, m, method_args))


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


def _not_started(message):
    """The report of a distributed run whose workers never started."""
    report = error_report(message)
    report.outcomes = {}
    return report


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
        methods = getattr(unit.decl, "methods", ()) if unit is not None else ()
        method = next((m for m in methods if m.name == entry_method), None)
        if method is None:
            return _not_started(f"missing projected unit '{unit_name}'" if unit is None
                                else f"'{unit_name}' has no method '{entry_method}'")

        def located(params, role=role):
            return [(p.name, set() if p.te.name == "Unit" else {role}) for p in params]

        claim = partial(registry.claim, claimant=role)
        ctor_args, decl = [], unit.decl  # a static entry makes no instance
        try:
            if "static" not in method.modifiers and isinstance(decl, LClass) and decl.constructors:
                ctor_args = wire_arguments(located(decl.constructors[0].params),
                                           channels, claim, owner=unit_name)
            method_args = wire_arguments(located(method.params), channels, claim,
                                         {role: list(args_by_role.get(role, []))})
        except ChoreoRuntimeError as e:
            return _not_started(f"{role}: {e}")
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
