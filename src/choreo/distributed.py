"""Distributed evaluator: each role interprets its projected unit, and all
roles of a run take turns on one thread (``run_workers``), each until it
waits on a channel or ends. ``eval_distributed`` starts every run, the test
kit's cases too, with one ``ExecutionContext`` that holds the run's state.
A worker runs on the evaluator core it shares with the oracle
(``interpreter.Evaluator``), and supplies what only workers have: the
method tables that the projector copies onto each class, with each slot
taken to its method up ``extends`` once per program, the unit forms and
``com``/``select`` bound by direction when compiled (a send of unit
receives), whose wait on a channel is a generator on the role's stack, as
a method call is; an endpoint has no other method. The first role to fail
cancels the others, a proven deadlock stops every role at once, and the
deadline, checked at every call, stops programs that diverge. Try/catch
executes its body (there is no user-level throw; a generated default throw
of a selection switch fails its role).
"""

from __future__ import annotations

import time
from functools import partial

from .builtins import CONSTRUCTORS, Console, PrintStreamV, builtin_static
from .interpreter import (
    OWN, Evaluator, ExecutionReport, Facts, ProgramObject, error_report, raising, wire_arguments,
)
from .local import LClass, LEnum, LNew
from .projector import generated_name
from .record import record
from .runtime import (
    CHANNEL_CAPACITY, UNIT, ChannelEndpoint, ChoreoRuntimeError, DeadlockTimeout,
    EnumV, ExecutionContext, drive, observe_value, observed_object,
)


class ProgramFacts(Facts):
    """The ``Facts`` that every role's interpreter of one ``LocalProgram``
    shares, and its declarations by unit name. A class's table is its
    projected one (``LClass.table``) with each own slot in it taken to the
    method of that slot up ``extends``, with whether it is static; a unit
    read back from text has none."""

    def __init__(self, units):
        self.decls = {u.generated_name: u.decl for u in units}
        tables = {}
        for name, decl in self.decls.items():
            if isinstance(decl, LClass) and decl.table is not None:
                own = {m.slot: m for methods in self.declared(name) for m in methods}
                tables[name] = {slot: (m, "static" in m.modifiers)
                                for slot, s in decl.table.items() if (m := own.get(s)) is not None}
        super().__init__(tables)

    def declared(self, class_name):
        """The constructors and methods of the class ``class_name``, then of
        each class up ``extends``, one list per class."""
        decl = self.decls.get(class_name)
        while isinstance(decl, LClass):
            yield decl.constructors + decl.methods
            decl = self.decls.get(decl.extends.name) if decl.extends is not None else None


def _channel(name):
    """``name`` (``com`` or ``select``) on a worker's endpoint ``ep``, as its
    ``(send, receive)``, each ``f(evaluator, ep, message, slot)``: its value,
    or a wait until the direction has room or a message comes. A send of
    unit receives; a receiver that is not an endpoint takes the method of
    the call's slot that ``call_method`` finds for it."""
    def receive(ev, ep, message, slot, name=name, label=name == "select"):
        if type(ep) is not ChannelEndpoint:
            return ev.call_method(ep, name, [message], slot)
        if ep.pair.queues[1 - ep.side]:
            return ep.receive_label() if label else ep.receive_data()
        return _wait(ep, name, message, False)

    def send(ev, ep, message, slot, name=name, label=name == "select", receive=receive):
        if type(ep) is not ChannelEndpoint:
            return ev.call_method(ep, name, [message], slot)
        if message is UNIT:
            return receive(ev, ep, message, slot)
        if len(ep.pair.queues[ep.side]) < CHANNEL_CAPACITY:
            return ep.send_label(message) if label else ep.send_data(message)
        return _wait(ep, name, message, True)
    return send, receive


def _wait(endpoint, name, message, sending):
    """``com`` or ``select`` on ``endpoint`` once it can proceed. A key has
    at most two claimants, so only this role reads (or writes) the direction
    it waits on: once ``run_workers`` finds it ready, it stays ready."""
    yield endpoint, sending
    return getattr(endpoint, name)(message)


class LocalInterpreter(Evaluator):
    """Interprets the local language for one role. A frame's site is the
    name of the unit whose method it runs; every call checks the run's
    deadline."""

    CHANNELS = {name: _channel(name) for name in ("com", "select")}

    def __init__(self, program, role, context, console):
        super().__init__(console)
        if program.facts is None:
            program.facts = ProgramFacts(program.units)
        self.facts = program.facts
        self.role = role
        self.context = context
        self.deadline = context.deadline

    def claim_channel(self, key):
        return self.context.claim(key, self.role)

    # ---------------------------------------------------------------- calls

    def run_ctor(self, this, class_name, slot, args):
        """Runs on ``this`` the constructor of ``class_name`` of ``slot``
        (a read-back call's has none): ``this``, or a generator whose value
        is ``this``. A class that declares none takes no arguments."""
        decl = self.facts.decls.get(class_name)
        if isinstance(decl, LClass) and decl.constructors:
            ctor = self.method(class_name, class_name, len(args), slot)[0]
            return self.run(this, class_name, ctor, args)
        if args or not isinstance(decl, LClass):
            raise ChoreoRuntimeError(f"no constructor '{class_name}/{len(args)}'")
        return this

    @staticmethod
    def slot(exp):
        return exp.slot

    def declared(self, class_name):
        return ([(m, (m, "static" in m.modifiers)) for m in methods]
                for methods in self.facts.declared(class_name))

    @staticmethod
    def dispatcher(name, arity, slot):
        def dispatch(ev, obj, args, name=name, arity=arity, slot=slot):
            try:
                m = ev.facts.tables[obj.class_name][slot][0]
            except KeyError:
                m = ev.method(obj.class_name, name, arity, slot)[0]
            return ev.run(obj, obj.class_name, m, args)
        return dispatch

    def bind(self, exp):
        decls = self.facts.decls
        if type(exp) is LNew:
            cname = exp.class_name
            fn = CONSTRUCTORS.get(cname)
            if fn is not None or cname not in decls:
                return 0, fn or raising(f"unknown local class '{cname}'")
            return OWN, lambda ev, fr, args, c=cname, s=exp.slot: ev.run_ctor(
                ProgramObject(c), c, s, args)
        scope, name, slot = exp.scope, exp.name, exp.slot
        if scope is None:
            return OWN, (_super_call(slot) if name == "super"
                         else _site_call(name, len(exp.args), slot))
        if scope.name in decls:
            try:
                m = self.method(scope.name, name, len(exp.args), slot)[0]
            except ChoreoRuntimeError as e:
                return 0, raising(str(e))
            return OWN, lambda ev, fr, args, site=scope.name, m=m: ev.run(None, site, m, args)
        return 0, builtin_static(scope.name, name) or raising(
            f"unknown static call '{scope.name}.{name}'")

    def bind_static(self, scope, name):
        decl = self.facts.decls.get(scope.name)
        if isinstance(decl, LEnum) and name in decl.cases:
            return lambda ev, fr, value=EnumV(scope.name, name): value
        if scope.name == "System" and name == "out":
            return lambda ev, fr: PrintStreamV(ev.console, ev.role)
        return raising(f"unknown static field '{scope.name}.{name}'")


def _super_call(slot):
    """``super(...)`` of ``slot``: the constructor of the superclass of the
    frame's site."""
    def call(ev, fr, args, slot=slot):
        decl = ev.facts.decls[fr.site]
        if decl.extends is None:
            raise ChoreoRuntimeError("no superclass constructor")
        return ev.run_ctor(fr.this, decl.extends.name, slot, args)
    return call


def _site_call(name, arity, slot):
    """The unqualified call of ``slot``, a method ``name/arity``, looked up
    in the table of the class of ``this``, or, in a static method, of the
    frame's site."""
    def call(ev, fr, args, name=name, arity=arity, slot=slot):
        this = fr.this
        site = fr.site if this is None else this.class_name
        try:
            m, static = ev.facts.tables[site][slot]
        except KeyError:
            m, static = ev.method(site, name, arity, slot)
        if static:
            return ev.run(None, site, m, args)
        if this is None:
            raise ChoreoRuntimeError(f"instance method '{name}' called from a static context")
        return ev.run(this, site, m, args)
    return call


def observe_local(value):
    """Observation of a worker value, comparable with the global role view."""
    return observe_value(value, lambda v: observed_object(
        v.class_name, v.fields.items(), observe_local) if isinstance(v, ProgramObject) else None)


# ----------------------------------------------------------------- workers

@record
class WorkerOutcome:
    role: str
    status: str  # ok | deadlock-timeout | error
    value: object = None
    error: str = None


def _entry(interp, unit_name, method, ctor_args, method_args):
    """A role's entry call of the method node ``method``, on an instance
    that the first constructor makes unless it is static, as a
    generator."""
    this = None
    if "static" not in method.modifiers:
        this, ctors = ProgramObject(unit_name), interp.facts.decls[unit_name].constructors
        if ctors:
            this = yield interp.run(this, unit_name, ctors[0], ctor_args)
    return (yield interp.run(this, unit_name, method, method_args))


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


def run_workers(local_program, context, console, entries):
    """Runs each role's entry call in ``context``; all roles take turns on
    this thread.

    ``entries`` maps each role to (unit name, entry method node,
    constructor arguments, method arguments). Returns the outcomes by role,
    the root cause of a failure first.
    """
    outcomes = {role: WorkerOutcome(role, "error") for role in entries}
    stacks = {role: [_entry(LocalInterpreter(local_program, role, context, console), *entry)]
              for role, entry in entries.items()}
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

    The entry is chosen as ``interpreter.eval_global`` chooses it.
    Arguments are wired as ``interpreter.wire_arguments`` says, with the
    parameters a role's unit types as ``Unit`` living at no role.
    """
    args_by_role = args_by_role or {}
    channels = channels or {}
    context = ExecutionContext(deadline)
    console = Console()
    started = time.perf_counter()

    entries = {}
    for role in roles:
        unit_name = generated_name(entry_class, roles, role)
        unit = local_program.unit(unit_name)
        methods = getattr(unit.decl, "methods", ()) if unit is not None else ()
        method = min((m for m in methods if m.name == entry_method),
                     key=lambda m: len(m.params), default=None)
        if method is None:
            return error_report(f"missing projected unit '{unit_name}'" if unit is None
                                else f"'{unit_name}' has no method '{entry_method}'", {})

        def located(params, role=role):
            return [(p.name, set() if p.te.name == "Unit" else {role}) for p in params]

        claim = partial(context.claim, claimant=role)
        ctor_args, decl = [], unit.decl  # a static entry makes no instance
        try:
            if "static" not in method.modifiers and isinstance(decl, LClass) and decl.constructors:
                ctor_args = wire_arguments(located(decl.constructors[0].params),
                                           channels, claim, owner=unit_name)
            method_args = wire_arguments(located(method.params), channels, claim,
                                         {role: list(args_by_role.get(role, []))})
        except ChoreoRuntimeError as e:
            return error_report(f"{role}: {e}", {})
        entries[role] = (unit_name, method, ctor_args, method_args)
    outcomes = run_workers(local_program, context, console, entries)

    duration = time.perf_counter() - started
    status, error = "ok", None
    if context.failure is not None:
        status, error = context.failure[1], _failure_summary(context, outcomes)
    returns = {role: observe_local(o.value) if o.status == "ok" else "unit"
               for role, o in outcomes.items()}
    return ExecutionReport(returns, console.transcripts(), duration, status, error, outcomes)
