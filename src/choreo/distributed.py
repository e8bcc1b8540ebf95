"""Distributed evaluator: one concurrent worker per role over projected units.

Each worker interprets its own unit against the runtime channels. Workers
share only the channel registry; everything else is worker-local. A
configurable deadline turns blocked receives into deadlock-timeout results
instead of hangs. Try/catch executes its body (there is no user-level throw
in the language; generated default throws surface as worker errors).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .builtins import Builtins, Console, PrintStreamV, binary_value
from .interpreter import ExecutionReport, decode_value
from .local import (
    LAssign, LBinary, LBlock, LCall, LClass, LEnum, LExpStm, LFieldAcc, LIf,
    LLit, LName, LNew, LNil, LReturn, LStaticName, LSwitch, LThrow,
    LTryCatch, LUnit, LUnitCall, LVarDecl,
)
from .runtime import (
    UNIT, AssertionFailure, ChannelRegistry, ChoreoRuntimeError,
    DeadlockTimeout, EnumV, ExecutionContext, ExceptionV, ListV, OptionalV,
    is_unit,
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
        self.registry = registry
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

    def find_ctor(self, class_name, arity):
        decl = self.unit_decl(class_name)
        if decl is None or not isinstance(decl, LClass):
            return None
        for c in decl.constructors:
            if len(c.params) == arity:
                return c
        if arity == 0:
            return "default"
        return None

    # ------------------------------------------------------------- running

    def run_static(self, unit_name, method, args):
        decl, m = self.find_method(unit_name, method, len(args), static=True)
        if m is None:
            raise ChoreoRuntimeError(f"no static method '{unit_name}.{method}/{len(args)}'")
        return self.call(None, unit_name, m, args)

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
        ctor = self.find_ctor(class_name, len(args))
        if ctor is None:
            raise ChoreoRuntimeError(
                f"no constructor '{class_name}/{len(args)}'")
        if ctor != "default":
            self.call(obj, class_name, ctor, args)
        return obj

    def call(self, this, unit_name, method, args):
        env = {}
        for p, a in zip(method.params, args):
            env[p.name] = a
        frame = _LFrame(this, unit_name, env)
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
                ctor = self.find_ctor(sup, len(args))
                if ctor is None:
                    raise ChoreoRuntimeError(f"no constructor '{sup}/{len(args)}'")
                if ctor != "default":
                    self.call(frame.this, sup, ctor, args)
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
    if is_unit(value) or value is None:
        return "unit"
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, EnumV):
        return ("enum", value.type_name, value.case)
    if isinstance(value, ListV):
        return ["list"] + [observe_local(v) for v in value.items]
    if isinstance(value, OptionalV):
        return ("optional", observe_local(value.value) if value.present else None)
    if isinstance(value, LocalObject):
        fields = {}
        for name, v in value.fields.items():
            obs = observe_local(v)
            if obs != "unit":
                fields[name] = obs
        return ("object", value.unit_name, tuple(sorted(fields.items())))
    if isinstance(value, ExceptionV):
        return ("exception", value.class_name, value.message)
    if hasattr(value, "com"):
        return ("channel",)
    return ("opaque", repr(value))


# ----------------------------------------------------------------- workers

@dataclass
class WorkerOutcome:
    role: str
    status: str  # ok | deadlock-timeout | error
    value: object = None
    error: str = None


def _worker_body(interp, unit_name, entry_method, ctor_args, method_args, outcome):
    try:
        decl = interp.unit_decl(unit_name)
        _, m = interp.find_method(unit_name, entry_method, len(method_args))
        if m is None:
            raise ChoreoRuntimeError(f"'{unit_name}' has no method '{entry_method}'")
        if "static" in m.modifiers:
            outcome.value = interp.run_static(unit_name, entry_method, method_args)
        else:
            obj = interp.construct(unit_name, ctor_args)
            outcome.value = interp.call(obj, unit_name, m, method_args)
        outcome.status = "ok"
    except DeadlockTimeout as e:
        outcome.status = "deadlock-timeout"
        outcome.error = str(e)
    except (AssertionFailure, ChoreoRuntimeError) as e:
        outcome.status = "error"
        outcome.error = f"{type(e).__name__}: {e}"
    except Exception as e:  # worker panic
        outcome.status = "error"
        outcome.error = f"panic: {type(e).__name__}: {e}"
    finally:
        interp.context.mark_finished(interp.role)


def eval_distributed(local_program, entry_class, roles, entry_method,
                     args_by_role=None, channels=None, deadline=10.0,
                     registry=None):
    """Spawn one worker per role and join them against a deadline."""
    args_by_role = dict(args_by_role or {})
    channels = dict(channels or {})
    context = ExecutionContext(deadline)
    registry = registry if registry is not None else ChannelRegistry(context)
    registry.context = context
    console = Console()
    started = time.perf_counter()

    outcomes = {}
    threads = []
    for role in roles:
        from .projector import generated_name

        unit_name = generated_name(entry_class, roles, role)
        unit = local_program.unit(unit_name)
        if unit is None:
            raise ChoreoRuntimeError(f"missing projected unit '{unit_name}'")
        interp = LocalInterpreter(local_program.units, role, registry, console, context)
        ctor_args = []
        ctor = None
        if isinstance(unit.decl, LClass) and unit.decl.constructors:
            ctor = unit.decl.constructors[0]
            for p in ctor.params:
                if p.te.name == "Unit":
                    ctor_args.append(UNIT)
                elif p.name in channels:
                    ctor_args.append(registry.claim(channels[p.name], role))
                else:
                    raise ChoreoRuntimeError(
                        f"constructor parameter '{p.name}' of '{unit_name}' has no "
                        f"channel wiring")
        pending = [decode_value(v) for v in args_by_role.get(role, [])]
        method_args = []
        decl = unit.decl
        target = None
        for m in decl.methods:
            if m.name == entry_method:
                target = m
                break
        if target is None:
            raise ChoreoRuntimeError(f"'{unit_name}' has no method '{entry_method}'")
        for p in target.params:
            if p.te.name == "Unit":
                method_args.append(UNIT)
            elif p.name in channels:
                method_args.append(registry.claim(channels[p.name], role))
            elif pending:
                method_args.append(pending.pop(0))
            else:
                method_args.append(UNIT)
        outcome = WorkerOutcome(role, "error")
        outcomes[role] = outcome
        t = threading.Thread(
            target=_worker_body,
            args=(interp, unit_name, entry_method, ctor_args, method_args, outcome),
            name=f"worker-{role}",
            daemon=True,
        )
        threads.append(t)
    for t in threads:
        t.start()
    budget = deadline + 2.0 if deadline is not None else None
    for t in threads:
        t.join(budget)
    for role, t in zip(roles, threads):
        if t.is_alive():
            outcomes[role].status = "deadlock-timeout"
            outcomes[role].error = "worker still blocked at the deadline"
            context.cancelled.set()

    duration = time.perf_counter() - started
    statuses = [o.status for o in outcomes.values()]
    if all(s == "ok" for s in statuses):
        status, error = "ok", None
    elif any(s == "deadlock-timeout" for s in statuses):
        status = "deadlock-timeout"
        error = "; ".join(f"{r}: {o.error}" for r, o in outcomes.items() if o.error)
    else:
        status = "error"
        error = "; ".join(f"{r}: {o.error}" for r, o in outcomes.items() if o.error)
    returns = {role: observe_local(o.value) if o.status == "ok" else "unit"
               for role, o in outcomes.items()}
    report = ExecutionReport(returns, console.transcripts(), duration, status, error)
    report.outcomes = outcomes
    return report
