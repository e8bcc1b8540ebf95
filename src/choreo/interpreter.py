"""Global evaluator: runs checked choreographies directly.

Values are not located; the per-role structure shows up in the variable
stores (a variable of a type located at R lives in R's store), the per-role
console transcripts, and the observation function used by the differential
harness. Channels are passive: ``com`` returns its payload relocated,
``select`` returns its label. Role-permuted instantiation rebinds the formal
roles of the constructed object, which is all the mergesort-style role
rotation needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import surface as S
from .builtins import Builtins, Console, PrintStreamV, binary_value
from .projector import generated_name
from .runtime import (
    UNIT, ChoreoRuntimeError, EnumV, ListV, observe_value, observed_object,
)
from .types import TVar, spine


class GlobalChannel:
    """Passive channel value: com relocates, select echoes."""

    def __init__(self, key="<anonymous>"):
        self.key = key

    def com(self, message=UNIT):
        return message

    def select(self, label=UNIT):
        return label


@dataclass
class GlobalObject:
    info: object  # DeclInfo
    binding: dict  # formal role name -> actual role name
    fields: dict = field(default_factory=dict)

    def formal_for_actual(self, actual):
        for formal, act in self.binding.items():
            if act == actual:
                return formal
        return None


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Thrown(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class Frame:
    """One activation: role binding, per-role variable stores, this."""

    info: object
    binding: dict
    this: GlobalObject = None
    stores: dict = field(default_factory=dict)  # actual role -> {name: value}
    var_roles: dict = field(default_factory=dict)  # name -> actual role tuple

    def declare(self, name, actual_roles, value):
        roles = tuple(sorted(actual_roles)) or ("<nowhere>",)
        self.var_roles[name] = roles
        for r in roles:
            self.stores.setdefault(r, {})[name] = value

    def assign(self, name, value):
        for r in self.var_roles[name]:
            self.stores[r][name] = value

    def lookup(self, name):
        roles = self.var_roles.get(name)
        if roles is None:
            return None, False
        # Read from every store the variable lives in; isolation by keying.
        value = self.stores[roles[0]][name]
        return value, True


@dataclass
class ExecutionReport:
    returns: dict
    transcripts: dict
    duration: float
    status: str  # "ok" | "deadlock-timeout" | "error"
    error: str = None


class GlobalInterpreter:
    def __init__(self, checked):
        self.checked = checked
        self.table = checked.table
        self.console = Console()
        self.channels = {}
        self.builtins = Builtins(
            self.console,
            invoke=lambda recv, m, args: self.invoke_dynamic(recv, m, args),
            claim_channel=self.global_channel,
        )

    # ------------------------------------------------------------- channels

    def global_channel(self, key):
        if key not in self.channels:
            self.channels[key] = GlobalChannel(key)
        return self.channels[key]

    # ------------------------------------------------------------ plumbing

    def actual_roles(self, te, binding):
        """Actual roles of a denoted type expression under a role binding."""
        return {binding[r] for r in self.checked.type_roles(te) if r in binding}

    def find_method(self, info, name, arity, binding):
        """(MethodInfo, owner binding) via the supertype closure.

        Dynamic dispatch needs an implementation, so signature-only members
        (interface/abstract declarations) are skipped.
        """
        for sup, submap in self.checked._checker.supertype_closure(info):
            for mi in sup.methods:
                if mi.name != name or len(mi.node.params) != arity:
                    continue
                if mi.node.body is None:
                    continue
                sup_binding = self.super_binding(sup, submap, binding)
                return mi, sup_binding
        return None, None

    def super_binding(self, sup, submap, binding):
        if not submap:
            return dict(binding)
        out = {}
        for formal in sup.role_vars:
            arg = submap.get(formal.uid, formal)
            if isinstance(arg, TVar):
                out[formal.name] = binding.get(arg.name, arg.name)
        return out

    # ------------------------------------------------------------ execution

    def call_method(self, obj: GlobalObject, mi, args, binding=None):
        binding = binding if binding is not None else obj.binding
        frame = Frame(mi.owner, binding, this=obj)
        for p, v in zip(mi.node.params, args):
            frame.declare(p.name, self.actual_roles(p.te, binding), v)
        try:
            self.exec_stm(frame, mi.node.body)
        except _Return as r:
            return r.value
        return UNIT

    def construct(self, info, actual_roles, ctor_mi, args):
        binding = {v.name: a for v, a in zip(info.role_vars, actual_roles)}
        obj = GlobalObject(info, binding)
        if ctor_mi is not None and ctor_mi.node.body is not None:
            self.call_method(obj, ctor_mi, args)
        return obj

    # ------------------------------------------------------------ statements

    def exec_stm(self, frame, stm):
        while stm is not None:
            if isinstance(stm, S.Nil):
                return
            if isinstance(stm, S.Return):
                raise _Return(self.eval(frame, stm.value) if stm.value is not None else UNIT)
            if isinstance(stm, S.ExpStm):
                self.eval(frame, stm.exp)
            elif isinstance(stm, S.VarDecl):
                roles = self.actual_roles(stm.te, frame.binding) \
                    if id(stm) in self.checked.var_tes else set()
                value = self.eval(frame, stm.init) if stm.init is not None else UNIT
                frame.declare(stm.name, roles, value)
            elif isinstance(stm, S.Assign):
                value = self.eval(frame, stm.value)
                if stm.op != "=":
                    current = self.eval(frame, stm.target)
                    value = binary_value(stm.op[:-1], current, value)
                self.assign_to(frame, stm.target, value)
            elif isinstance(stm, S.If):
                branch = stm.then if self.eval(frame, stm.guard) is True else stm.orelse
                self.exec_stm(frame, branch)
            elif isinstance(stm, S.Block):
                self.exec_stm(frame, stm.body)
            elif isinstance(stm, S.Switch):
                self.exec_switch(frame, stm)
            elif isinstance(stm, S.TryCatch):
                self.exec_try(frame, stm)
            else:
                raise ChoreoRuntimeError(f"cannot execute {stm!r}")
            stm = getattr(stm, "cont", None)

    def exec_switch(self, frame, stm):
        guard = self.eval(frame, stm.guard)
        if not isinstance(guard, EnumV):
            raise ChoreoRuntimeError("switch guard must be an enumerated value")
        for c in stm.cases:
            if c.label == guard.case:
                self.exec_stm(frame, c.body)
                return
        if stm.default is not None:
            self.exec_stm(frame, stm.default)

    def exec_try(self, frame, stm):
        from .builtins import exception_matches

        try:
            self.exec_stm(frame, stm.body)
        except _Thrown as t:
            for h in stm.handlers:
                if exception_matches(t.value, h.te.name):
                    roles = self.actual_roles(h.te, frame.binding)
                    frame.declare(h.name, roles, t.value)
                    self.exec_stm(frame, h.body)
                    return
            raise

    def assign_to(self, frame, target, value):
        if isinstance(target, S.Name):
            _, found = frame.lookup(target.ident)
            if found:
                frame.assign(target.ident, value)
                return
            if frame.this is not None:
                frame.this.fields[target.ident] = value
                return
            raise ChoreoRuntimeError(f"cannot assign unknown name '{target.ident}'")
        if isinstance(target, S.FieldAcc):
            scope = self.eval(frame, target.scope)
            if isinstance(scope, GlobalObject):
                scope.fields[target.name] = value
                return
        raise ChoreoRuntimeError("unsupported assignment target")

    # ----------------------------------------------------------- expressions

    def eval(self, frame, exp):
        if isinstance(exp, S.Literal):
            if exp.value is None:
                return None
            return exp.value
        if isinstance(exp, S.Name):
            if exp.ident == "this":
                return frame.this
            value, found = frame.lookup(exp.ident)
            if found:
                return value
            if frame.this is not None and exp.ident in frame.this.fields:
                return frame.this.fields[exp.ident]
            raise ChoreoRuntimeError(f"unbound name '{exp.ident}'")
        if isinstance(exp, S.FieldAcc):
            return self.eval_field(frame, exp)
        if isinstance(exp, S.Call):
            return self.eval_call(frame, exp)
        if isinstance(exp, S.New):
            return self.eval_new(frame, exp)
        if isinstance(exp, S.Binary):
            return self.eval_binary(frame, exp)
        raise ChoreoRuntimeError(f"cannot evaluate {exp!r}")

    def eval_field(self, frame, exp):
        if isinstance(exp.scope, S.StaticRef):
            info = self.table.get(exp.scope.name)
            if info is not None and info.is_enum and exp.name in info.node.cases:
                return EnumV(info.name, exp.name)
            if exp.scope.name == "System" and exp.name == "out":
                actual = frame.binding[exp.scope.roles[0]]
                return PrintStreamV(self.console, actual)
            raise ChoreoRuntimeError(
                f"unknown static field '{exp.scope.name}.{exp.name}'")
        scope = self.eval(frame, exp.scope)
        if isinstance(scope, GlobalObject):
            if exp.name in scope.fields:
                return scope.fields[exp.name]
            raise ChoreoRuntimeError(
                f"object of '{scope.info.name}' has no field '{exp.name}' yet")
        raise ChoreoRuntimeError(f"no field '{exp.name}' on {scope!r}")

    def eval_call(self, frame, exp):
        args = [self.eval(frame, a) for a in exp.args]
        resolved = self.checked.resolved.get(id(exp))
        if exp.scope is None:
            if exp.name == "super":
                mi = resolved[1]
                sup_binding = self._super_ctor_binding(frame, mi)
                self.call_method(frame.this, mi, args, binding=sup_binding)
                return UNIT
            mi = resolved[1] if resolved else None
            if mi is None:
                raise ChoreoRuntimeError(f"unresolved call '{exp.name}'")
            if mi.is_static:
                return self.call_static(mi, frame.binding, args)
            return self.invoke_object(frame.this, exp.name, len(args), args)
        if isinstance(exp.scope, S.StaticRef):
            actual_roles = [frame.binding[r] for r in exp.scope.roles]
            hit, value = self.builtins.try_static_call(exp.scope.name, exp.name, args)
            if hit:
                return value
            info = self.table.get(exp.scope.name)
            mi = resolved[1] if resolved else None
            if info is None or mi is None:
                raise ChoreoRuntimeError(
                    f"unknown static call '{exp.scope.name}.{exp.name}'")
            binding = {v.name: a for v, a in zip(info.role_vars, actual_roles)}
            return self.call_static(mi, binding, args, owner=info)
        receiver = self.eval(frame, exp.scope)
        return self.invoke_dynamic(receiver, exp.name, args)

    def _super_ctor_binding(self, frame, mi):
        node = frame.this.info.node
        t = self.checked.te_type(node.extends)
        head, targs = spine(t)
        sup = mi.owner
        binding = {}
        i = 0
        for a in targs:
            if isinstance(a, TVar) and a.role:
                formal = sup.role_vars[i]
                binding[formal.name] = frame.this.binding.get(a.name, a.name)
                i += 1
            if i >= len(sup.role_vars):
                break
        return binding

    def call_static(self, mi, binding, args, owner=None):
        owner = owner if owner is not None else mi.owner
        if mi.node.body is None:
            raise ChoreoRuntimeError(
                f"builtin static '{owner.name}.{mi.name}' is not implemented by "
                f"the runtime")
        frame = Frame(owner, binding, this=None)
        for p in mi.node.params:
            roles = self.actual_roles(p.te, binding)
            frame.declare(p.name, roles, args.pop(0) if args else UNIT)
        try:
            self.exec_stm(frame, mi.node.body)
        except _Return as r:
            return r.value
        return UNIT

    def invoke_object(self, obj, name, arity, args):
        mi, binding = self.find_method(obj.info, name, arity, obj.binding)
        if mi is None:
            raise ChoreoRuntimeError(f"'{obj.info.name}' has no method '{name}/{arity}'")
        return self.call_method(obj, mi, args, binding=binding)

    def invoke_dynamic(self, receiver, name, args):
        if isinstance(receiver, GlobalObject):
            return self.invoke_object(receiver, name, len(args), args)
        hit, value = self.builtins.try_call_method(receiver, name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")

    def eval_new(self, frame, exp):
        args = [self.eval(frame, a) for a in exp.args]
        hit, value = self.builtins.construct(exp.class_name, args)
        if hit:
            return value
        info = self.table.get(exp.class_name)
        if info is None:
            raise ChoreoRuntimeError(f"unknown class '{exp.class_name}'")
        actual_roles = [frame.binding[r] for r in exp.roles]
        resolved = self.checked.resolved.get(id(exp))
        ctor = resolved[1] if resolved else None
        return self.construct(info, actual_roles, ctor, args)

    def eval_binary(self, frame, exp):
        left = self.eval(frame, exp.left)
        if exp.op in ("&&", "||"):
            if exp.op == "&&":
                return self.eval(frame, exp.right) if left is True else False
            return True if left is True else self.eval(frame, exp.right)
        right = self.eval(frame, exp.right)
        return binary_value(exp.op, left, right)

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
        formal = value.formal_for_actual(role)
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
    args_by_role = dict(args_by_role or {})
    channels = dict(channels or {})
    interp = GlobalInterpreter(checked)
    info = checked.decl_info(entry_class)
    if info is None:
        raise ChoreoRuntimeError(f"unknown entry class '{entry_class}'")
    binding = {r: r for r in info.role_names}
    started = time.perf_counter()

    entry_mi = next((mi for mi in info.methods if mi.name == entry_method), None)
    if entry_mi is None:
        raise ChoreoRuntimeError(f"'{entry_class}' has no method '{entry_method}'")

    def located(params):
        return [(p.name, interp.actual_roles(p.te, binding)) for p in params]

    try:
        receiver = None
        if not entry_mi.is_static:
            ctor = info.constructors[0]
            ctor_args = wire_arguments(located(ctor.node.params), channels,
                                       interp.global_channel, owner=entry_class)
            receiver = interp.construct(info, info.role_names, ctor, ctor_args)
        pending = {r: list(vs) for r, vs in args_by_role.items()}
        call_args = wire_arguments(located(entry_mi.node.params), channels,
                                   interp.global_channel, pending)

        if entry_mi.is_static:
            result = interp.call_static(entry_mi, binding, call_args, owner=info)
        else:
            result = interp.call_method(receiver, entry_mi, call_args)
        ret_roles = interp.actual_roles(entry_mi.node.return_te, binding)
        returns = {}
        for role in info.role_names:
            returns[role] = interp.observe(result, role) if role in ret_roles else "unit"
        status, error = "ok", None
    except ChoreoRuntimeError as e:
        returns = {}
        status, error = "error", str(e)
    except Exception as e:  # a library caller gets a report, never a traceback
        returns = {}
        status, error = "error", f"{type(e).__name__}: {e}"
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
