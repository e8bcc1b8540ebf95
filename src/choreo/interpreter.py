"""Global evaluator: runs checked choreographies directly.

Values are not located; the per-role structure shows up in the per-role
console transcripts and in the observation function used by the
differential harness. Channels are passive: ``com`` returns its payload
relocated, ``select`` returns its label. Role-permuted instantiation
rebinds the formal roles of the constructed object, which is all the
mergesort-style role rotation needs. A method call is one generator, run by
``runtime.drive`` as the distributed evaluator's are, so recursion takes no
Python stack and is bounded only by ``runtime.MAX_CALL_DEPTH``; an
expression that calls no method of the program evaluates with no generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import GeneratorType

from . import surface as S
from .builtins import Builtins, Console, PrintStreamV, binary_value
from .projector import generated_name
from .runtime import (
    UNIT, ChoreoRuntimeError, EnumV, ListV, drive, observe_value, observed_object,
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


@dataclass(slots=True)
class Frame:
    """One activation: role binding, this, and one store of names."""

    binding: dict
    this: GlobalObject
    env: dict


@dataclass
class ExecutionReport:
    returns: dict
    transcripts: dict
    duration: float
    status: str  # "ok" | "deadlock-timeout" | "error"
    error: str = None


class OracleFacts:
    """What the oracle looks up in one checked program, worked out on first
    use: dynamic dispatch, and which expressions call a method of the
    program. Kept as ``CheckedProgram.facts``; it holds the program's
    tables, not the program."""

    def __init__(self, checked):
        self.method_keys = checked.method_keys
        self.resolved = checked.resolved
        self.closure = checked._checker.supertype_closure
        self._methods = {}  # (declaration, name, arity) -> (MethodInfo, supertype, subst)
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

    def flag(self, exp):
        """How ``exp`` calls methods of the program: not at all (0), only
        as a call or ``new`` whose operands call none (``OWN``), or in an
        operand (``DEEP``). Kept in ``flags`` where not 0, with its
        operands' but for names, literals and class references."""
        t = type(exp)
        own = deep = False
        if t is S.Call:
            scope = exp.scope
            own = scope is None or (exp.name, len(exp.args)) in self.method_keys
            deep = scope is not None and type(scope) not in _LEAVES and self.flag(scope) != 0
        elif t is S.New:
            res = self.resolved.get(id(exp))
            own = res is not None and res[1].node.body is not None
        elif t is S.Binary:
            left = type(exp.left) not in _LEAVES and self.flag(exp.left) != 0
            right = type(exp.right) not in _LEAVES and self.flag(exp.right) != 0
            deep = left or right
        elif t is S.FieldAcc:
            deep = type(exp.scope) not in _LEAVES and self.flag(exp.scope) != 0
        else:
            return 0
        if t is S.Call or t is S.New:
            for a in exp.args:
                if type(a) not in _LEAVES and self.flag(a):
                    deep = True
        flag = DEEP if deep else OWN if own else 0
        if flag:
            self.flags[id(exp)] = flag
        return flag


OWN, DEEP = 1, 2  # see ``OracleFacts.flag``
_LEAVES = frozenset((S.Name, S.Literal, S.StaticRef))  # they never call

# The expression each statement evaluates first.
_EXPRESSION = {S.ExpStm: "exp", S.VarDecl: "init", S.Return: "value", S.If: "guard",
               S.Assign: "value", S.Switch: "guard"}


class GlobalInterpreter(Builtins):
    """Runs a checked program, and is its builtins. Its methods that make
    calls return the value of a builtin, or the generator of a method of
    the program, for their caller to run (see ``runtime.drive``); a
    builtin's callback runs at once, to the end."""

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

    def invoke(self, receiver, name, args):
        return self.now(self.invoke_dynamic(receiver, name, args))

    @staticmethod
    def now(value):
        """``value``, or the value of the generator ``value`` run at once."""
        return drive([value])[1] if type(value) is GeneratorType else value

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
            return self.run(obj, binding, ctor_mi, args)
        return obj

    def call_static(self, mi, binding, args, owner=None):
        if mi.node.body is None:
            owner = owner if owner is not None else mi.owner
            raise ChoreoRuntimeError(
                f"builtin static '{owner.name}.{mi.name}' is not implemented by "
                f"the runtime")
        return self.run(None, binding, mi, args)

    def invoke_object(self, obj, name, arity, args):
        mi, sup, submap = self.facts.method(obj.info, name, arity)
        if mi is None:
            raise ChoreoRuntimeError(f"'{obj.info.name}' has no method '{name}/{arity}'")
        return self.run(obj, self.super_binding(sup, submap, obj.binding), mi, args)

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

    def invoke_dynamic(self, receiver, name, args):
        if isinstance(receiver, GlobalObject):
            return self.invoke_object(receiver, name, len(args), args)
        hit, value = self.try_call_method(receiver, name, args)
        if hit:
            return value
        raise ChoreoRuntimeError(f"no method '{name}' on {receiver!r}")

    def _call(self, frame, exp, args):
        """The call or ``new`` ``exp``, given its arguments: its value, or
        the generator of the method of the program it calls. Its receiver
        must call nothing."""
        if type(exp) is S.New:
            return self._new(frame, exp, args)
        scope = exp.scope
        if scope is not None and type(scope) is not S.StaticRef:
            return self.invoke_dynamic(self.eval(frame, scope), exp.name, args)
        resolved = self.resolved.get(id(exp))
        if scope is None:
            if exp.name == "super":
                mi = resolved[1]
                return self.run(frame.this, self._super_ctor_binding(frame, mi), mi, args)
            mi = resolved[1] if resolved else None
            if mi is None:
                raise ChoreoRuntimeError(f"unresolved call '{exp.name}'")
            if mi.is_static:
                return self.call_static(mi, frame.binding, args)
            return self.invoke_object(frame.this, exp.name, len(args), args)
        actual_roles = [frame.binding[r] for r in scope.roles]
        hit, value = self.try_static_call(scope.name, exp.name, args)
        if hit:
            return value
        info = self.table.get(scope.name)
        mi = resolved[1] if resolved else None
        if info is None or mi is None:
            raise ChoreoRuntimeError(f"unknown static call '{scope.name}.{exp.name}'")
        binding = {v.name: a for v, a in zip(info.role_vars, actual_roles)}
        return self.call_static(mi, binding, args, owner=info)

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

    def _new(self, frame, exp, args):
        hit, value = self.construct(exp.class_name, args)
        if hit:
            return value
        info = self.table.get(exp.class_name)
        if info is None:
            raise ChoreoRuntimeError(f"unknown class '{exp.class_name}'")
        actual_roles = [frame.binding[r] for r in exp.roles]
        resolved = self.resolved.get(id(exp))
        ctor = resolved[1] if resolved else None
        return self.instantiate(info, actual_roles, ctor, args)

    # ------------------------------------------------------------ statements

    def run(self, this, binding, mi, args):
        """One call of ``mi`` on ``this`` (None for a static method), as a
        generator (see ``runtime.drive``); a constructor's value is ``this``.
        Nested blocks run on a list of continuations, and ``return``
        returns from the generator."""
        frame = Frame(binding, this, {p.name: a for p, a in zip(mi.node.params, args)})
        ctor = mi.node.is_constructor
        facts, flags, ev = self.facts, self.facts.flags, self.eval
        rest = []  # the continuations of the enclosing blocks, innermost last
        stm = mi.node.body
        while True:
            t = type(stm)
            if t is S.Block or t is S.TryCatch:
                rest.append(stm.cont)
                stm = stm.body
                continue
            if stm is None or t is S.Nil:
                if not rest:
                    return this if ctor else UNIT
                stm = rest.pop()
                continue
            attr = _EXPRESSION.get(t)
            if attr is None:
                raise ChoreoRuntimeError(f"cannot execute {stm!r}")
            exp = getattr(stm, attr)
            if exp is None:
                value = UNIT
            else:
                flag = flags.get(id(exp))
                if flag is None:
                    flag = flags[id(exp)] = facts.flag(exp)
                if not flag:
                    value = ev(frame, exp)
                elif flag == OWN:
                    value = self._call(frame, exp, [ev(frame, a) for a in exp.args])
                    if type(value) is GeneratorType:
                        value = yield value
                else:
                    value = yield from self._eval_g(frame, exp, flags)
            if t is S.ExpStm:
                stm = stm.cont
            elif t is S.VarDecl:
                frame.env[stm.name] = value
                stm = stm.cont
            elif t is S.Return:
                return this if ctor else value
            elif t is S.If:
                rest.append(stm.cont)
                stm = stm.then if value is True else stm.orelse
            elif t is S.Assign:
                if stm.op != "=":
                    value = binary_value(stm.op[:-1], ev(frame, stm.target), value)
                self.assign_to(frame, stm.target, value)
                stm = stm.cont
            else:  # Switch
                if not isinstance(value, EnumV):
                    raise ChoreoRuntimeError("switch guard must be an enumerated value")
                rest.append(stm.cont)
                stm = next((c.body for c in stm.cases if c.label == value.case), stm.default)

    def assign_to(self, frame, target, value):
        if isinstance(target, S.Name):
            if target.ident in frame.env:
                frame.env[target.ident] = value
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
        """The value of ``exp``; a method of the program that it calls runs
        at once, to the end, as a builtin's callback does."""
        t = type(exp)
        if t is S.Name:
            ident = exp.ident
            if ident in frame.env:
                return frame.env[ident]
            if ident == "this":
                return frame.this
            if frame.this is not None and ident in frame.this.fields:
                return frame.this.fields[ident]
            raise ChoreoRuntimeError(f"unbound name '{ident}'")
        if t is S.Literal:
            return exp.value
        if t is S.Call or t is S.New:
            value = self._call(frame, exp, [self.eval(frame, a) for a in exp.args])
            return drive([value])[1] if type(value) is GeneratorType else value
        if t is S.FieldAcc and type(exp.scope) is S.StaticRef:
            scope = exp.scope
            info = self.table.get(scope.name)
            if info is not None and info.is_enum and exp.name in info.node.cases:
                return EnumV(info.name, exp.name)
            if scope.name == "System" and exp.name == "out":
                return PrintStreamV(self.console, frame.binding[scope.roles[0]])
            raise ChoreoRuntimeError(f"unknown static field '{scope.name}.{exp.name}'")
        if t is S.FieldAcc:
            return self.field_of(self.eval(frame, exp.scope), exp.name)
        if t is S.Binary:
            left = self.eval(frame, exp.left)
            if exp.op == "&&":
                return self.eval(frame, exp.right) if left is True else False
            if exp.op == "||":
                return True if left is True else self.eval(frame, exp.right)
            return binary_value(exp.op, left, self.eval(frame, exp.right))
        raise ChoreoRuntimeError(f"cannot evaluate {exp!r}")

    def _eval_g(self, frame, exp, flags):
        """``eval`` of an expression that calls a method of the program, as
        a generator (see ``runtime.drive``); ``flags`` holds those of its
        operands."""
        ev, ev_g = self.eval, self._eval_g
        t = type(exp)
        if t is S.Binary:
            left, right, op = exp.left, exp.right, exp.op
            left = (yield from ev_g(frame, left, flags)) if flags.get(id(left)) else ev(frame, left)
            if op == "&&" and left is not True:
                return False
            if op == "||" and left is True:
                return True
            right = (yield from ev_g(frame, right, flags)) if flags.get(id(right)) else ev(frame, right)
            return right if op in ("&&", "||") else binary_value(op, left, right)
        if t is S.FieldAcc:
            return self.field_of((yield from ev_g(frame, exp.scope, flags)), exp.name)
        args = []
        for a in exp.args:
            args.append((yield from ev_g(frame, a, flags)) if flags.get(id(a)) else ev(frame, a))
        if t is S.Call and flags.get(id(exp.scope)):
            value = self.invoke_dynamic((yield from ev_g(frame, exp.scope, flags)), exp.name, args)
        else:
            value = self._call(frame, exp, args)
        if type(value) is GeneratorType:
            value = yield value
        return value

    def field_of(self, scope, name):
        if isinstance(scope, GlobalObject):
            if name in scope.fields:
                return scope.fields[name]
            raise ChoreoRuntimeError(
                f"object of '{scope.info.name}' has no field '{name}' yet")
        raise ChoreoRuntimeError(f"no field '{name}' on {scope!r}")

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
                                       interp.claim_channel, owner=entry_class)
            receiver = interp.now(interp.instantiate(info, info.role_names, ctor, ctor_args))
        pending = {r: list(vs) for r, vs in args_by_role.items()}
        call_args = wire_arguments(located(entry_mi.node.params), channels,
                                   interp.claim_channel, pending)

        if entry_mi.is_static:
            result = interp.now(interp.call_static(entry_mi, binding, call_args, owner=info))
        else:
            result = interp.now(interp.run(receiver, receiver.binding, entry_mi, call_args))
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
